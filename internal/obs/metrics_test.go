package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cs_test_total", "test counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("cs_test_total", "ignored"); again != c {
		t.Error("second registration returned a different counter")
	}
	g := r.Gauge("cs_test_gauge", "test gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cs_conc_total", "")
	g := r.Gauge("cs_conc_gauge", "")
	h := r.Quantiles("cs_conc_quantiles", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(0.5)
				h.Observe(float64(i % 6))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 4000 {
		t.Errorf("gauge = %g, want 4000", g.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("quantile count = %d, want 8000", h.Count())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Quantiles("cs_hist", "period lengths")
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP cs_hist period lengths",
		"# TYPE cs_hist summary",
		`cs_hist{quantile="0.5"} ` + formatFloat(h.Quantile(0.5)),
		`cs_hist{quantile="0.999"} ` + formatFloat(h.Quantile(0.999)),
		"cs_hist_sum 556.5",
		"cs_hist_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The log buckets resolve each value to within 1/64.
	if q := h.Quantile(0.5); q < 5*(1-1.0/64) || q > 5*(1+1.0/64) {
		t.Errorf("median = %g, want 5 within 1/64", q)
	}
}

func TestPrometheusLabelsGrouping(t *testing.T) {
	r := NewRegistry()
	r.Gauge(Labeled("cs_worker_committed", "worker", "1"), "per-worker committed work").Set(3)
	r.Gauge(Labeled("cs_worker_committed", "worker", "0"), "per-worker committed work").Set(7)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "# TYPE cs_worker_committed gauge") != 1 {
		t.Errorf("labeled series not grouped under one TYPE line:\n%s", out)
	}
	w0 := strings.Index(out, `cs_worker_committed{worker="0"} 7`)
	w1 := strings.Index(out, `cs_worker_committed{worker="1"} 3`)
	if w0 < 0 || w1 < 0 || w0 > w1 {
		t.Errorf("series missing or unsorted (w0=%d, w1=%d):\n%s", w0, w1, out)
	}
	if !strings.Contains(out, "# HELP cs_worker_committed per-worker committed work") {
		t.Errorf("missing HELP line:\n%s", out)
	}
}

func TestHistogramLabeled(t *testing.T) {
	r := NewRegistry()
	h := r.Quantiles(Labeled("cs_len", "worker", "2"), "")
	h.Observe(0.5)
	h.Observe(3)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cs_len{worker="2",quantile="0.5"} `,
		`cs_len{worker="2",quantile="0.99"} `,
		`cs_len_sum{worker="2"} 3.5`,
		`cs_len_count{worker="2"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as quantiles did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("cs_x", "")
	r.Quantiles("cs_x", "")
}

func TestDeterministicExposition(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("b_total", "bb").Add(2)
		r.Gauge("a_gauge", "aa").Set(1)
		r.Quantiles("c_quantiles", "cc").Observe(1.5)
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if build() != build() {
		t.Error("exposition is not deterministic")
	}
}
