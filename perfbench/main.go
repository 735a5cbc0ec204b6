// Command perfbench is the repository's serving benchmark. It builds
// csserve's serving stack in-process (one replica, or three clustered
// replicas with steal fill), drives it with a seeded workload from at
// most nproc client connections per replica, checks every answer, and
// prints the end-to-end metrics (untraced run) or the per-layer ledger
// (traced run).
//
//	perfbench --workload plan-hot --seed 1 --seconds 25 --trace 0
//
// Every metric is printed on its own line with its unit; the last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. A failed check makes the command exit
// 1; a run that breaks a validity guard prints the reason and exits 3
// without a result. README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// A run sets up from scratch, each time from a collected heap, at least
// minSetups times and until minSetupTime has passed (at most maxSetups
// times); setup_s is the median, and the last set-up serves the run.
// cluster-spread's set-up takes a few milliseconds, so a median over
// hundreds of them is what keeps its scheduler noise out of setup_s.
const (
	minSetups    = 9
	maxSetups    = 400
	minSetupTime = 3 * time.Second
)

// e2eMetric is an end-to-end metric; BENCHMARK.json lists the same
// names with their regression bounds.
type e2eMetric struct{ name, unit, better string }

// endToEnd are the metrics every untraced run reports in its result:
// each applies to every workload and is never zero.
var endToEnd = []e2eMetric{
	{"plan_p50_ms", "ms", "lower"},
	{"plan_p99_ms", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"alloc_kib_per_req", "KiB", "lower"},
	{"heap_peak_mib", "MiB", "lower"},
	{"gc_cycles_per_1k_req", "count", "lower"},
	{"setup_s", "s", "lower"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// errRefused marks a run a validity guard discarded.
var errRefused = errors.New("run refused")

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: plan-cold, plan-hot or cluster-spread")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := fs.Int("seconds", 25, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload plan-cold|plan-hot|cluster-spread --seed N --seconds S --trace 0|1")
		return 2
	}
	res, err := measure(w, *seed, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if errors.Is(err, errRefused) {
			return 3
		}
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure sets the workload up repeatedly, runs it for seconds on the
// last set-up, checks it, and returns the result line.
func measure(w workload, seed uint64, seconds int, traced bool, out io.Writer) (resultLine, error) {
	nproc := runtime.NumCPU()
	var (
		cor    *corpus
		st     *stack
		cl     *client
		setups []float64
	)
	var spent time.Duration
	for len(setups) < maxSetups && (len(setups) < minSetups || spent < minSetupTime) {
		if st != nil {
			cl.close()
			st.stop()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if cor, err = w.gen(seed); err != nil {
			return resultLine{}, fmt.Errorf("generating %s: %w", w.name, err)
		}
		if st, err = startStack(max(1, w.replicas), w.caches, traced); err != nil {
			return resultLine{}, err
		}
		cl = newClient(st.bases(), nproc, traced)
		if err := prewarm(cl, cor.warm, nproc); err != nil {
			cl.close()
			st.stop()
			return resultLine{}, err
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
	}

	// Start the measured phase from a collected heap so that heap and GC
	// figures do not depend on set-up garbage.
	runtime.GC()
	t := newTally(traced)
	counters := st.counters()
	before := readProc()
	peak := startHeapSampler()
	start := time.Now()
	closedLoop(cl, t, nproc, start.Add(time.Duration(seconds)*time.Second), cor.next)
	wall := time.Since(start).Seconds()
	heapPeak := peak()
	after := readProc()
	cl.close()
	st.stop()

	if err := guard(t, cl, nproc); err != nil {
		return resultLine{}, err
	}
	for _, err := range cl.check.errors {
		fmt.Fprintln(out, "check failed:", err)
	}

	ok := float64(t.ok)
	e2e := map[string]float64{
		"plan_p50_ms":          t.lat["plan"].Quantile(0.5),
		"plan_p99_ms":          t.lat["plan"].Quantile(0.99),
		"throughput_rps":       ok / wall,
		"cpu_ms_per_req":       ratio(float64(after.cpu-before.cpu)/float64(time.Millisecond), ok),
		"alloc_kib_per_req":    ratio(float64(after.allocBytes-before.allocBytes)/1024, ok),
		"heap_peak_mib":        heapPeak / (1 << 20),
		"gc_cycles_per_1k_req": ratio(float64(after.gcCycles-before.gcCycles)*1000, ok),
		"setup_s":              median(setups),
	}
	fmt.Fprintf(out, "workload %s  seed %d  seconds %d  trace %v  (%s, %d client connections per replica)\n",
		w.name, seed, seconds, traced, st.describe(), nproc)
	for _, e := range endToEnd {
		fmt.Fprintf(out, "%-24s %14.6g %s\n", e.name, e2e[e.name], e.unit)
	}
	if est, n := t.lat["estimate"], int(t.lat["estimate"].Count()); n > 0 {
		fmt.Fprintf(out, "%-24s %14.6g ms\n", "estimate_p50_ms", est.Quantile(0.5))
		switch {
		case beyond(n, 0.99) >= 10:
			fmt.Fprintf(out, "%-24s %14.6g ms\n", "estimate_p99_ms", est.Quantile(0.99))
		case beyond(n, 0.9) >= 10:
			fmt.Fprintf(out, "%-24s %14.6g ms  (%d estimates: too few for a p99)\n", "estimate_p90_ms", est.Quantile(0.9), n)
		}
	}
	fmt.Fprintf(out, "%-24s %14.6g ratio  (%d of %d attempted; statuses %v)\n", "error_ratio",
		ratio(float64(t.failed()), float64(t.attempted)), t.failed(), t.attempted, t.statuses)
	n200 := float64(t.lat["plan"].Count() + t.lat["estimate"].Count())
	fmt.Fprintf(out, "served 200s: fresh %.4f, peer-filled %.4f, cached %.4f, coalesced %.4f\n",
		ratio(float64(t.served[servedFresh]), n200), ratio(float64(t.served[servedPeer]), n200),
		ratio(float64(t.served[servedCached]), n200), ratio(float64(t.served[servedCoalesced]), n200))

	res := resultLine{Correct: t.failed() == 0, Attempted: t.attempted, Failed: t.failed(), Metrics: map[string]metricValue{}}
	if !traced {
		for _, e := range endToEnd {
			res.Metrics[e.name] = metricValue{e2e[e.name], e.unit}
		}
		return res, nil
	}
	ledger := layerLedger(t, st, counters, cl, replaySample(cor, 64))
	for _, l := range layerMetrics {
		res.Metrics[l.name] = metricValue{ledger[l.name], l.unit}
		pred := "should move " + l.moves
		if l.moves == validityOnly {
			pred = validityOnly
		}
		if l.still != "" {
			pred += "; no change on " + l.still
		}
		fmt.Fprintf(out, "%-38s %14.6g %-5s  %s\n", l.name, ledger[l.name], l.unit, pred)
	}
	verdict := "within"
	if ledger["closure.gap_ratio"] > closureTolerance {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(out, "closure.gap_ratio %.4f is %s the tolerance %.2f\n", ledger["closure.gap_ratio"], verdict, closureTolerance)
	return res, nil
}

// guard refuses a run that measured the generator rather than the
// server, or that is too short for its own percentiles.
func guard(t *tally, cl *client, nproc int) error {
	if n := cl.maxConns(); n > nproc {
		return fmt.Errorf("%w: the generator held %d connections to one replica, more than nproc = %d", errRefused, n, nproc)
	}
	if n := cl.overCap.Load(); n > 0 {
		return fmt.Errorf("%w: %d progressive estimates above the %d-episode cap", errRefused, n, progressiveEpisodeCap)
	}
	if n := int(t.lat["plan"].Count()); beyond(n, 0.99) < 10 {
		return fmt.Errorf("%w: %d plan answers leave fewer than ten samples beyond plan_p99_ms", errRefused, n)
	}
	return nil
}

// prewarm sends the warm set once from clients concurrent clients; every
// answer must be a checked 200.
func prewarm(cl *client, warm []request, clients int) error {
	t := newTally(false)
	var (
		wg   sync.WaitGroup
		next = make(chan int)
	)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t.add(cl.send(&warm[i]))
			}
		}()
	}
	for i := range warm {
		next <- i
	}
	close(next)
	wg.Wait()
	if t.failed() > 0 {
		return fmt.Errorf("pre-warm: %d of %d requests failed (statuses %v, checks %v)", t.failed(), t.attempted, t.statuses, cl.check.errors)
	}
	return nil
}

// replaySample is the corpus the traced run's replays use: up to n
// distinct requests per route, in generation order.
func replaySample(c *corpus, n int) []request {
	seen := map[string]bool{}
	count := map[string]int{}
	var out []request
	take := func(req request) {
		if seen[req.Key] || count[req.Route] >= n {
			return
		}
		seen[req.Key] = true
		count[req.Route]++
		out = append(out, req)
	}
	for _, req := range c.warm {
		take(req)
	}
	for i := 0; i < 16*n; i++ {
		take(c.next(i))
	}
	return out
}

// procStats are the process-wide counters the end-to-end metrics
// difference across the measured phase. The clients run in the same
// process, so their share is included.
type procStats struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return procStats{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
	}
}

// startHeapSampler samples the bytes in heap objects every 2 ms until
// the returned function is called, which returns the largest sample.
func startHeapSampler() func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := 0.0
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, float64(s[0].Value.Uint64()))
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}
