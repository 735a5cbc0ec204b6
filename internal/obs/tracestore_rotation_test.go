package obs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Window rotation on the injectable clock: the admission floor carried
// from a full window must gate warm-up keeps in the next one, and a
// sparse window must keep the previous floor instead of defining a
// meaningless one.
func TestTracerRotationFloorCarryOverFakeClock(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRate: -1, SlowestK: 3, Window: 10 * time.Second})
	var clock atomic.Int64 // seconds since the tracer's birth
	base := tr.windowStart
	tr.now = func() time.Time { return base.Add(time.Duration(clock.Load()) * time.Second) }

	// Window 1 fills the slow buffer: floor will be 100.
	for i, ms := range []float64{100, 150, 200} {
		if !tr.Offer(mkTrace("w1", ms), 200) {
			t.Fatalf("warm-up keep %d dropped in the first window", i)
		}
	}
	clock.Store(11) // rotate

	// Post-rotation warm-up: below the carried floor drops, above keeps.
	if tr.Offer(mkTrace("fast", 1), 200) {
		t.Fatalf("1ms kept as slow right after rotation (floor 100 not carried)")
	}
	if !tr.Offer(mkTrace("slow", 150), 200) {
		t.Fatalf("150ms dropped during warm-up despite beating the carried floor")
	}

	// Window 2 ends sparse (2 buffer entries < K): its floor must NOT
	// replace the carried one, so 50ms still drops in window 3's warm-up
	// while a genuinely slow record keeps.
	clock.Store(22)
	if tr.Offer(mkTrace("mid", 50), 200) {
		t.Fatalf("sparse window redefined the admission floor")
	}
	if !tr.Offer(mkTrace("w3slow", 120), 200) {
		t.Fatalf("120ms dropped despite beating the (still carried) floor")
	}
}

// Concurrent Offers racing a window rotation must neither panic nor
// lose counts (run under -race in CI). The invariant checked is
// conservation: every offer is counted, keeps never exceed offers, and
// per-reason counts sum to the keeps.
func TestTracerConcurrentOffersAcrossRotation(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 256, SampleRate: -1, SlowestK: 4, Window: time.Millisecond})
	const workers, per = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				status := 200
				if i%7 == 0 {
					status = 500
				}
				tr.Offer(mkTrace("t", float64((w*per+i)%300)), status)
				if i%50 == 0 {
					time.Sleep(time.Millisecond) // straddle rotations
				}
			}
		}(w)
	}
	wg.Wait()
	st := tr.Stats()
	if st.Offered != workers*per {
		t.Fatalf("offered = %d, want %d", st.Offered, workers*per)
	}
	if st.Kept > st.Offered {
		t.Fatalf("kept %d > offered %d", st.Kept, st.Offered)
	}
	var byReason uint64
	for _, n := range st.ByReason {
		byReason += n
	}
	if byReason != st.Kept {
		t.Fatalf("reason counts sum to %d, kept = %d", byReason, st.Kept)
	}
	// Errors are unconditional keeps regardless of rotation races.
	wantErrs := uint64(0)
	for i := 0; i < per; i++ {
		if i%7 == 0 {
			wantErrs += workers
		}
	}
	if st.ByReason[SampledError] != wantErrs {
		t.Fatalf("errors kept = %d, want %d", st.ByReason[SampledError], wantErrs)
	}
}

// Reading the standard quantile set must be safe while writers record,
// as a /metrics scrape does. Run under -race.
func TestQuantileHistSnapshotDuringRecord(t *testing.T) {
	var h QuantileHist
	const workers, per = 4, 2000
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%1000) + 0.25)
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	for {
		if h.Count() > 0 {
			for _, q := range standardQuantiles {
				if v := h.Quantile(q); v < 0 {
					t.Errorf("q%g = %v while recording", q, v)
				}
			}
			if p50, p999 := h.Quantile(0.5), h.Quantile(0.999); p50 > p999 {
				t.Errorf("quantiles inverted mid-record: p50 %v > p999 %v", p50, p999)
			}
		}
		if h.Max() > 1000 {
			t.Errorf("max = %v, beyond any observed value", h.Max())
		}
		select {
		case <-done:
			if got := h.Count(); got != workers*per {
				t.Fatalf("count = %d, want %d", got, workers*per)
			}
			if p999 := h.Quantile(0.999); p999 <= 0 {
				t.Fatalf("final p999 = %v", p999)
			}
			return
		default:
		}
	}
}
