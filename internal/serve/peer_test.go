package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// badPeer fills every miss with the same payload.
type badPeer struct{ raw json.RawMessage }

func (p badPeer) Fill(context.Context, string) (json.RawMessage, bool) { return p.raw, true }

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

// gatedPeer fills every miss with raw once release is closed, counting
// calls.
type gatedPeer struct {
	raw     json.RawMessage
	release chan struct{}
	calls   atomic.Int64
}

func (p *gatedPeer) Fill(ctx context.Context, _ string) (json.RawMessage, bool) {
	p.calls.Add(1)
	select {
	case <-p.release:
		return p.raw, true
	case <-ctx.Done():
		return nil, false
	}
}

// Concurrent misses on one key make one peer fill: the server calls
// Fill inside its per-key singleflight, which is the only coalescing
// peer fill has. The fill is held until every request has joined the
// flight, so none can arrive late and hit the cache.
func TestPeerFillCoalesced(t *testing.T) {
	const body = `{"life":"uniform","lifespan":450,"c":1}`
	key, err := RequestKey("plan", []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	origin := New(Config{Workers: 1})
	t.Cleanup(origin.Drain)
	originMux := http.NewServeMux()
	origin.Routes(originMux)
	originMux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
	raw, ok := origin.PeerGet(key)
	if !ok {
		t.Fatal("origin did not cache its answer")
	}

	s := New(Config{Workers: 1})
	t.Cleanup(s.Drain)
	peer := &gatedPeer{raw: raw, release: make(chan struct{})}
	s.SetPeers(peer)
	mux := http.NewServeMux()
	s.Routes(mux)

	const clients = 32
	recs := make([]*httptest.ResponseRecorder, clients)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func(rec *httptest.ResponseRecorder) {
			defer wg.Done()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
		}(recs[i])
	}
	joined := func() int {
		s.flights.mu.Lock()
		defer s.flights.mu.Unlock()
		if c, ok := s.flights.m[key]; ok {
			return c.waiters
		}
		return 0
	}
	for deadline := time.Now().Add(5 * time.Second); joined() < clients && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(peer.release)
	wg.Wait()

	if n := peer.calls.Load(); n != 1 {
		t.Errorf("%d concurrent misses made %d peer fills, want 1", clients, n)
	}
	for i, rec := range recs {
		var got Served
		if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if !got.PeerFilled && !got.Coalesced {
			t.Errorf("request %d served %+v, want peer_filled or coalesced", i, got)
		}
	}
}
