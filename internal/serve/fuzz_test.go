package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fuzzStatuses are the statuses a wire input may get: an answer, a 4xx
// for a bad or unplannable spec, or load shedding and deadlines.
var fuzzStatuses = map[int]bool{200: true, 400: true, 422: true, 429: true, 503: true, 504: true}

// fuzzRoute sends raw bodies through the real mux and checks the
// contract every wire input is owed: a correct answer or a 4xx, never a
// 500 or a panic, a 200 always carrying a decodable body keyed as
// RequestKey keys it (the gate routes by that key), and a normalize
// that is idempotent and keys its output the same way twice.
func fuzzRoute[S spec, R any](f *testing.F, route string, normalize func(S) (S, error), seeds ...string) {
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	s := New(Config{Workers: 1, MaxEpisodes: 5000, DefaultTimeout: 2 * time.Second, MaxTimeout: 2 * time.Second})
	f.Cleanup(s.Drain)
	mux := http.NewServeMux()
	s.Routes(mux)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+route, bytes.NewReader(body)))
		if !fuzzStatuses[rec.Code] {
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code == http.StatusOK {
			var resp R
			if rec.Body.Len() == 0 || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
				t.Fatalf("200 for %q with an undecodable body %q", body, rec.Body)
			}
			var keyed struct{ Key string }
			_ = json.Unmarshal(rec.Body.Bytes(), &keyed)
			if want, err := RequestKey(route, body); err != nil || keyed.Key != want {
				t.Fatalf("200 for %q under key %q, but RequestKey gives %q (%v)", body, keyed.Key, want, err)
			}
		}
		var sp S
		if decodeSpec(bytes.NewReader(body), &sp) != nil {
			return
		}
		once, err := normalize(sp)
		if err != nil {
			return
		}
		twice, err := normalize(once)
		if err != nil {
			t.Fatalf("normalize rejected its own output %+v: %v", once, err)
		}
		if any(twice) != any(once) || twice.Key() != once.Key() {
			t.Fatalf("normalize not idempotent: %+v -> %+v", once, twice)
		}
	})
}

func FuzzPlanBody(f *testing.F) {
	fuzzRoute[PlanSpec, PlanResponse](f, "plan", PlanSpec.normalize,
		`{"life":"uniform","lifespan":100,"c":1}`,
		`{"life":"poly","lifespan":300,"d":3,"c":2,"timeout_ms":50}`,
		`{"life":"geomdec","halflife":16}`,
		`{"life":"geominc","lifespan":50,"c":0.5}`,
		`{"life":"uniform","lifespan":1,"c":5}`,
		`{"life":"nope"}`,
		`{"c":-1}`,
		`not json`,
		`{"life":"poly","c":2} x`)
}

func FuzzEstimateBody(f *testing.F) {
	normalize := func(s EstimateSpec) (EstimateSpec, error) { return s.normalize(5000) }
	fuzzRoute[EstimateSpec, EstimateResponse](f, "estimate", normalize,
		`{"life":"uniform","lifespan":100,"c":1,"episodes":1}`,
		`{"life":"uniform","lifespan":100,"c":1,"episodes":2}`,
		`{"life":"geomdec","halflife":16,"policy":"fixed:5","episodes":300,"seed":9}`,
		`{"life":"poly","lifespan":200,"d":2,"policy":"allatonce","episodes":50}`,
		`{"life":"uniform","lifespan":100,"policy":"fixed:0","episodes":10}`,
		`{"episodes":5001}`,
		`{"policy":"bogus","episodes":10}`,
		`{"life":"poly","c":2,"episodes":10} x`)
}
