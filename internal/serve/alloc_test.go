package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestCacheGetHitAllocFree pins the //cs:hotpath budget of the cache
// hit path at runtime: shard selection, map lookup and the LRU bump
// must not allocate.
func TestCacheGetHitAllocFree(t *testing.T) {
	c := NewCache(64, 4, CacheMetrics{})
	c.Put("hot-key", 42)
	var ok bool
	avg := testing.AllocsPerRun(200, func() {
		_, ok = c.Get("hot-key")
	})
	if !ok {
		t.Fatal("expected a cache hit")
	}
	if avg != 0 {
		t.Fatalf("cache hit allocates %.2f/run, want 0", avg)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestPlanCacheHitAllocs bounds the allocations of a cache-hit POST
// /v1/plan through the instrumented handler, request and recorder
// included: 59 on go1.24 linux/amd64, and the budget is that count with
// no margin (AllocsPerRun truncates its average, so a sync.Pool refill
// after a GC does not move it).
func TestPlanCacheHitAllocs(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Drain)
	mux := http.NewServeMux()
	s.Routes(mux)
	body := `{"life":"uniform","lifespan":500,"c":2}`
	post := func() {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop items, so allocation counts vary")
	}
	post()
	if avg := testing.AllocsPerRun(200, post); avg > 59 {
		t.Errorf("cache-hit plan request allocates %.0f/run, want <= 59", avg)
	}
}
