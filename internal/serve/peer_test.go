package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// badPeer fills every miss with the same payload.
type badPeer struct{ raw json.RawMessage }

func (p badPeer) Fill(context.Context, string) (json.RawMessage, bool) { return p.raw, true }
func (badPeer) Offer(string, json.RawMessage)                          {}

// A malformed peer entry must never reach a cache: the fill path treats
// it as a peer miss and computes locally, and PeerPut refuses it.
func TestMalformedPeerEntriesRejected(t *testing.T) {
	origin, fresh := New(Config{Workers: 1}), New(Config{Workers: 1})
	t.Cleanup(origin.Drain)
	t.Cleanup(fresh.Drain)
	mux := http.NewServeMux()
	origin.Routes(mux)
	bodies := map[string]string{
		"plan":     `{"life":"uniform","lifespan":300,"c":1}`,
		"estimate": `{"life":"uniform","lifespan":300,"c":1,"policy":"fixed:15","episodes":400,"seed":5}`,
	}
	keys, good := map[string]string{}, map[string]json.RawMessage{}
	for route, body := range bodies {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+route, strings.NewReader(body)))
		var resp struct{ Key string }
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		keys[route] = resp.Key
		good[route], _ = origin.PeerGet(resp.Key)
		if err := fresh.PeerPut(resp.Key, good[route]); err != nil {
			t.Errorf("PeerPut rejected a good %s: %v", route, err)
		}
	}
	// with returns the route's good entry with fields replaced by raw
	// JSON text.
	with := func(route string, kv ...string) json.RawMessage {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(good[route], &m); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i]] = json.RawMessage(kv[i+1])
		}
		raw, _ := json.Marshal(m)
		return raw
	}

	for _, c := range []struct {
		name, route string
		raw         json.RawMessage
	}{
		// JSON has no NaN or Inf; a float64 overflow is the nearest a
		// peer can send, and decoding refuses it.
		{"plan overflowing to Inf", "plan", with("plan", "expected_work", "1e999")},
		{"plan truncated", "plan", with("plan", "periods", "[20,19]")},
		{"plan unproductive period", "plan", with("plan", "c", "1000")},
		{"plan work over duration", "plan", with("plan", "expected_work", "1e12")},
		{"plan wrong key", "plan", with("plan", "key", `"plan|other"`)},
		{"plan not json", "plan", json.RawMessage(`{"key":`)},
		{"estimate n mismatch", "estimate", with("estimate", "episodes", "401")},
		{"estimate one episode", "estimate", with("estimate", "episodes", "1",
			"work", `{"mean":1,"stderr":0,"ci95_lo":1,"ci95_hi":1,"min":1,"max":1,"n":1}`)},
		{"estimate reclaimed fraction", "estimate", with("estimate", "reclaimed_fraction", "1.5")},
		{"estimate overflowing band", "estimate", with("estimate", "lost", `{"mean":1e999}`)},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(Config{Workers: 1})
			t.Cleanup(s.Drain)
			key := keys[c.route]
			if err := s.PeerPut(key, c.raw); err == nil {
				t.Error("PeerPut accepted a malformed entry")
			}
			if _, ok := s.PeerGet(key); ok {
				t.Fatal("malformed entry reached the cache")
			}
			s.SetPeers(badPeer{raw: c.raw})
			mux := http.NewServeMux()
			s.Routes(mux)
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+c.route, strings.NewReader(bodies[c.route])))
			var got Served
			if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			if got.PeerFilled || got.Cached {
				t.Errorf("served %+v, want a fresh local computation", got)
			}
			if s.peerMissed.Value() != 1 || s.peerFilled.Value() != 0 {
				t.Errorf("peer fill hit/miss = %d/%d, want 0/1", s.peerFilled.Value(), s.peerMissed.Value())
			}
			if raw, _ := s.PeerGet(key); string(raw) != string(good[c.route]) {
				t.Errorf("cached %s, want the locally computed %s", raw, good[c.route])
			}
		})
	}
}
