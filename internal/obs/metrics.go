// Package obs is the repository's observability layer, built on the
// standard library alone. It provides three things:
//
//   - a lock-cheap metrics registry — monotone counters, float gauges
//     and log-bucketed quantile histograms, all updated with atomics —
//     with Prometheus text exposition;
//   - a structured trace sink (Sink) with JSONL and Chrome trace_event
//     exporters, so a simulation run renders as a per-worker timeline
//     in chrome://tracing or Perfetto;
//   - HTTP wiring for /metrics and /debug/pprof, plus a shared flag
//     helper the CLIs use for -trace / -trace-format / -metrics-addr.
//
// The simulators in internal/nowsim accept these hooks as optional,
// nil-safe fields: a nil Sink and a nil *Registry disable the
// instrumentation at (benchmarked) zero cost.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can move in either direction. Add uses
// a compare-and-swap loop, so gauges double as float accumulators
// (committed work, lost work, ...) that stay safe under concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta to the gauge's value.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind tags a registered metric for TYPE lines.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindQuantile
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindQuantile:
		return "summary"
	default:
		return "untyped"
	}
}

type entry struct {
	name string // full name, possibly with {label="value"} suffix
	kind metricKind
	c    *Counter
	g    *Gauge
	q    *QuantileHist
}

// Registry holds named metrics. Registration takes a mutex; updates to
// the returned metrics are lock-free atomics, so the hot path never
// touches the registry again. Series names may carry a Prometheus label
// suffix (see Labeled); series sharing a base name are grouped under
// one HELP/TYPE pair at exposition.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	help    map[string]string // base name -> help (first registration wins)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries: make(map[string]*entry),
		help:    make(map[string]string),
	}
}

// Labeled renders name{k1="v1",k2="v2",...} from alternating key/value
// pairs — the series-name convention the registry understands.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("obs: Labeled needs alternating key/value pairs")
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i])
		sb.WriteString(`="`)
		sb.WriteString(kv[i+1])
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// baseName strips a {label} suffix.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// splitSeries returns the base name and the label body (without braces,
// empty when unlabeled).
func splitSeries(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

func (r *Registry) lookup(name, help string, kind metricKind) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindQuantile:
		e.q = &QuantileHist{}
	}
	r.entries[name] = e
	base := baseName(name)
	if _, ok := r.help[base]; !ok {
		r.help[base] = help
	}
	return e
}

// Counter returns the counter registered under name, creating it on
// first use. help documents the base name (first registration wins).
// Registering the same name with a different metric type panics: that
// is always a programming error.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter).c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge).g
}

// Quantiles returns the log-bucketed quantile histogram registered
// under name, creating it on first use. It is exposed in the
// Prometheus text format as a summary with quantile labels 0.5, 0.9,
// 0.99 and 0.999, accurate to QuantileHist's fixed relative error.
func (r *Registry) Quantiles(name, help string) *QuantileHist {
	return r.lookup(name, help, kindQuantile).q
}

// snapshot returns the entries sorted by (base name, series name) —
// the deterministic exposition order.
func (r *Registry) snapshot() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	es := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		bi, bj := baseName(es[i].name), baseName(es[j].name)
		if bi != bj {
			return bi < bj
		}
		return es[i].name < es[j].name
	})
	return es
}

// WritePrometheus writes the registry in the classic Prometheus text
// exposition format (version 0.0.4). Series are sorted, so the output
// is deterministic for a quiescent registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	es := r.snapshot()
	r.mu.Lock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	var sb strings.Builder
	lastBase := ""
	for _, e := range es {
		base, labels := splitSeries(e.name)
		if base != lastBase {
			if h := help[base]; h != "" {
				fmt.Fprintf(&sb, "# HELP %s %s\n", base, h)
			}
			fmt.Fprintf(&sb, "# TYPE %s %s\n", base, e.kind)
			lastBase = base
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(&sb, "%s %d\n", e.name, e.c.Value())
		case kindGauge:
			fmt.Fprintf(&sb, "%s %s\n", e.name, formatFloat(e.g.Value()))
		case kindQuantile:
			writeQuantiles(&sb, base, labels, e.q)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func writeQuantiles(sb *strings.Builder, base, labels string, q *QuantileHist) {
	if q.Count() > 0 {
		for _, p := range standardQuantiles {
			fmt.Fprintf(sb, "%s{%squantile=%q} %s\n",
				base, joinLabels(labels), trimFloat(p), formatFloat(q.Quantile(p)))
		}
	}
	fmt.Fprintf(sb, "%s_sum%s %s\n", base, braced(labels), formatFloat(q.Sum()))
	fmt.Fprintf(sb, "%s_count%s %d\n", base, braced(labels), q.Count())
}

func joinLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return trimFloat(v)
}
