package serve

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current responses")

// goldenCorpus is the fixed request set whose answers the golden file
// pins: every plan family, and each estimate policy kind under a fixed
// seed.
var goldenCorpus = []struct{ route, body string }{
	{"plan", `{"life":"uniform","lifespan":500,"c":2}`},
	{"plan", `{"life":"poly","lifespan":800,"d":3,"c":1}`},
	{"plan", `{"life":"geomdec","halflife":40,"c":1}`},
	{"plan", `{"life":"geominc","lifespan":300,"c":2}`},
	{"estimate", `{"life":"uniform","lifespan":500,"c":2,"policy":"guideline","episodes":4000,"seed":7}`},
	{"estimate", `{"life":"geomdec","halflife":32,"c":1,"policy":"fixed:10","episodes":3000,"seed":11}`},
	{"estimate", `{"life":"uniform","lifespan":100,"c":1,"policy":"progressive","episodes":100,"seed":3}`},
}

// goldenPeers is a PeerFiller over another server's cache: with a nil
// source every fill misses. Offers are recorded in arrival order.
type goldenPeers struct {
	src    *Server
	offers []string
}

func (p *goldenPeers) Fill(_ context.Context, key string) (json.RawMessage, bool) {
	if p.src == nil {
		return nil, false
	}
	return p.src.PeerGet(key)
}

func (p *goldenPeers) Offer(key string, val json.RawMessage) {
	p.offers = append(p.offers, key+" "+string(val))
}

var elapsedRE = regexp.MustCompile(`"elapsed_ms":[^,}]*`)

// timingNames reduces a Server-Timing header to its ordered phase names.
func timingNames(h string) string {
	var names []string
	for _, part := range strings.Split(h, ", ") {
		name, _, _ := strings.Cut(part, ";")
		names = append(names, name)
	}
	return strings.Join(names, " ")
}

// TestGoldenResponses sends the corpus through Routes three ways — a
// fresh computation (peer fill missing), a cache hit, and a peer fill
// on a second server — and compares the body bytes (elapsed_ms
// masked), the Server-Timing phase order and the offered payloads with
// testdata/golden.txt. Run with -update to rewrite the file.
func TestGoldenResponses(t *testing.T) {
	origin, filled := New(Config{Workers: 1}), New(Config{Workers: 1})
	t.Cleanup(origin.Drain)
	t.Cleanup(filled.Drain)
	originPeers := &goldenPeers{}
	origin.SetPeers(originPeers)
	filled.SetPeers(&goldenPeers{src: origin})
	originMux, filledMux := http.NewServeMux(), http.NewServeMux()
	origin.Routes(originMux)
	filled.Routes(filledMux)

	var out strings.Builder
	send := func(mux *http.ServeMux, label, route, body string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+route, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", label, body, rec.Code, rec.Body)
		}
		out.WriteString("== " + label + " " + route + " " + body + "\n")
		out.WriteString("timing: " + timingNames(rec.Header().Get("Server-Timing")) + "\n")
		out.WriteString(elapsedRE.ReplaceAllString(rec.Body.String(), `"elapsed_ms":0`))
	}
	for _, c := range goldenCorpus {
		send(originMux, "fresh", c.route, c.body)
		send(originMux, "cached", c.route, c.body)
		send(filledMux, "peer", c.route, c.body)
	}
	out.WriteString("== offers\n")
	for _, o := range originPeers.offers {
		out.WriteString(o + "\n")
	}

	const path = "testdata/golden.txt"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("golden line %d differs:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
