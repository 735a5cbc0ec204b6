package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/nowsim"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
)

// outcome is one request as the client saw it.
type outcome struct {
	route  string
	status int     // 0 on a transport failure
	lat    float64 // ms: from send to the last body byte
	lag    float64 // ms: from the client's previous answer to this send
	how    served  // 200s only
	bad    bool    // 200 whose body failed a check
	seq    int
	timing string // Server-Timing header, traced runs only
	key    string
}

// maxTraced bounds the requests a traced run keeps for the per-layer
// joins (the first ones by sequence number), so its memory stays flat.
const maxTraced = 150_000

// tally accumulates outcomes in constant memory, so that the
// generator's own heap does not grow with the server's throughput; traced
// runs also keep up to maxTraced outcomes for the per-layer joins.
type tally struct {
	mu        sync.Mutex
	lat       map[string]*obs.QuantileHist // ms, 200s by route
	lag       *obs.QuantileHist
	attempted int
	ok        int
	served    [servedKinds]int
	statuses  map[int]int // every non-200, 0 for transport failures
	kept      []outcome   // traced runs only
	keep      bool
}

func newTally(keep bool) *tally {
	return &tally{lat: map[string]*obs.QuantileHist{"plan": new(obs.QuantileHist), "estimate": new(obs.QuantileHist)},
		lag: new(obs.QuantileHist), statuses: make(map[int]int), keep: keep}
}

func (t *tally) add(o outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.lag.Observe(o.lag)
	if o.status != http.StatusOK {
		t.statuses[o.status]++
	} else {
		t.lat[o.route].Observe(o.lat)
		t.served[o.how]++
		if !o.bad {
			t.ok++
		}
	}
	if t.keep && len(t.kept) < maxTraced {
		t.kept = append(t.kept, o)
	}
}

// failed counts non-200s, transport failures and failed checks.
func (t *tally) failed() int { return t.attempted - t.ok }

// client is the load generator's HTTP side: one transport holding at
// most nproc connections per replica, a dial counter that proves it,
// and the output checker.
type client struct {
	http  *http.Client
	bases []string
	trace bool
	check *checker

	mu      sync.Mutex
	open    map[string]int // live connections per replica address
	maxOpen int
	seq     atomic.Int64
	overCap atomic.Int64 // progressive estimates sent above progressiveEpisodeCap
}

func newClient(bases []string, conns int, trace bool) *client {
	c := &client{bases: bases, trace: trace, check: newChecker(trace), open: make(map[string]int)}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	c.http = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			c.mu.Lock()
			c.open[addr]++
			c.maxOpen = max(c.maxOpen, c.open[addr])
			c.mu.Unlock()
			return &trackedConn{Conn: conn, release: func() {
				c.mu.Lock()
				c.open[addr]--
				c.mu.Unlock()
			}}, nil
		},
	}}
	return c
}

// maxConns is the largest number of connections the client ever held
// open to one replica at once.
func (c *client) maxConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxOpen
}

func (c *client) close() { c.http.CloseIdleConnections() }

type trackedConn struct {
	net.Conn
	once    sync.Once
	release func()
}

func (t *trackedConn) Close() error {
	t.once.Do(t.release)
	return t.Conn.Close()
}

// send posts req and checks a 200 answer; the caller sets lag.
func (c *client) send(req *request) outcome {
	o := outcome{route: req.Route, seq: int(c.seq.Add(1)), key: req.Key}
	if req.Policy == "progressive" && req.Episodes > progressiveEpisodeCap {
		c.overCap.Add(1)
	}
	hreq, err := http.NewRequest(http.MethodPost, c.bases[req.Target]+"/v1/"+req.Route, bytes.NewReader(req.Body))
	if err != nil {
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.trace && o.seq <= maxTraced {
		hreq.Header.Set(seqHeader, strconv.Itoa(o.seq))
	}
	start := time.Now()
	resp, err := c.http.Do(hreq)
	if err != nil {
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.lat = msSince(start)
	if err != nil {
		return o
	}
	o.status = resp.StatusCode
	if c.trace {
		o.timing = resp.Header.Get("Server-Timing")
	}
	if o.status == http.StatusOK {
		o.how, o.bad = c.check.observe(req, body)
	}
	return o
}

// closedLoop runs clients that each send their next request when the
// previous answer arrives, until the deadline.
func closedLoop(c *client, t *tally, clients int, deadline time.Time, next func(i int) request) {
	var (
		wg  sync.WaitGroup
		idx atomic.Int64
	)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for prev.Before(deadline) {
				req := next(int(idx.Add(1) - 1))
				sent := time.Now()
				o := c.send(&req)
				o.lag = float64(sent.Sub(prev)) / float64(time.Millisecond)
				prev = time.Now()
				t.add(o)
			}
		}()
	}
	wg.Wait()
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// checker validates the first answer for each key and then compares
// every later answer with it, up to the per-response serving stamps, by
// hash: the measured phase pays one hash and one map lookup per answer.
type checker struct {
	seed   maphash.Seed
	mu     sync.Mutex
	first  map[string]*answer
	order  []string          // keys of first, oldest first
	errors []error           // the first few failed checks, for the log
	bodies map[string][]byte // traced runs: the first answers, for the encode replay
}

// The checker remembers the first answers of the last rememberKeys keys,
// so that the generator's heap stays flat however many distinct keys a
// run sends; a key sent again after it was forgotten is validated
// afresh. keptBodies caps the first answers a traced run keeps.
const (
	rememberKeys = 4096
	keptBodies   = 512
)

type answer struct {
	sum   uint64
	valid bool
}

func newChecker(keepBodies bool) *checker {
	c := &checker{seed: maphash.MakeSeed(), first: make(map[string]*answer)}
	if keepBodies {
		c.bodies = make(map[string][]byte)
	}
	return c
}

// served is how serve answered a 200, read from the stamps it puts on
// every response.
type served int

const (
	servedFresh     served = iota // computed here
	servedCached                  // from the local cache
	servedCoalesced               // waited for another request's computation
	servedPeer                    // filled from a peer's cache
	servedKinds
)

// serve stamps these per response; they trail every response body.
var (
	stampStart  = []byte(`,"cached":`)
	stampCached = []byte(`"cached":true`)
	stampPeer   = []byte(`"peer_filled":true`)
	stampFresh  = []byte(`"cached":false,"coalesced":false,"peer_filled":false`)
)

// observe checks a 200 body for req and reports how it was served and
// whether it failed a check.
func (c *checker) observe(req *request, body []byte) (how served, bad bool) {
	cut := bytes.LastIndex(body, stampStart)
	if cut < 0 {
		return servedFresh, true
	}
	switch stamps := body[cut+1:]; {
	case bytes.HasPrefix(stamps, stampCached):
		how = servedCached
	case bytes.Contains(stamps, stampPeer):
		how = servedPeer
	case bytes.HasPrefix(stamps, stampFresh):
		how = servedFresh
	default:
		how = servedCoalesced
	}
	sum := maphash.Bytes(c.seed, body[:cut])
	c.mu.Lock()
	a, seen := c.first[req.Key]
	c.mu.Unlock()
	if !seen {
		err := validate(req, body)
		a = &answer{sum: sum, valid: err == nil}
		c.mu.Lock()
		if err != nil && len(c.errors) < 5 {
			c.errors = append(c.errors, err)
		}
		if prev, raced := c.first[req.Key]; raced {
			a = prev
		} else {
			c.first[req.Key] = a
			if c.order = append(c.order, req.Key); len(c.order) > rememberKeys {
				delete(c.first, c.order[0])
				c.order = c.order[1:]
			}
			if c.bodies != nil && len(c.bodies) < keptBodies {
				c.bodies[req.Key] = body
			}
		}
		c.mu.Unlock()
	}
	return how, !a.valid || a.sum != sum
}

// validate checks an answer's meaning: the key the generator derived,
// a productive schedule prefix of the right length, expected work in
// (0, total duration], and for guideline estimates the E(S;p) identity
// within five standard errors.
func validate(req *request, body []byte) error {
	if req.Route == "plan" {
		var p serve.PlanResponse
		if err := json.Unmarshal(body, &p); err != nil {
			return err
		}
		return checkPlan(req, p)
	}
	var e serve.EstimateResponse
	if err := json.Unmarshal(body, &e); err != nil {
		return err
	}
	return checkEstimate(req, e)
}

func checkPlan(req *request, p serve.PlanResponse) error {
	if p.Key != req.Key {
		return fmt.Errorf("key %q, want %q", p.Key, req.Key)
	}
	if want := min(p.PeriodsTotal, 128); len(p.Periods) != want {
		return fmt.Errorf("%s: %d periods returned, want %d", req.Key, len(p.Periods), want)
	}
	for i, t := range p.Periods {
		if math.IsNaN(t) || math.IsInf(t, 0) || !(t > req.C) {
			return fmt.Errorf("%s: period %d = %g is not finite and > c = %g", req.Key, i, t, req.C)
		}
	}
	if !(p.ExpectedWork > 0) || !(p.ExpectedWork <= p.TotalDuration) {
		return fmt.Errorf("%s: expected work %g outside (0, %g]", req.Key, p.ExpectedWork, p.TotalDuration)
	}
	return nil
}

func checkEstimate(req *request, e serve.EstimateResponse) error {
	if e.Key != req.Key {
		return fmt.Errorf("key %q, want %q", e.Key, req.Key)
	}
	if e.Episodes != int64(req.Episodes) || e.Work.N != e.Episodes {
		return fmt.Errorf("%s: %d episodes (%d summarized), want %d", req.Key, e.Episodes, e.Work.N, req.Episodes)
	}
	if math.IsNaN(e.Work.Mean) || math.IsInf(e.Work.Mean, 0) || e.Work.Mean < 0 {
		return fmt.Errorf("%s: work mean %g", req.Key, e.Work.Mean)
	}
	if req.Policy != "guideline" {
		return nil
	}
	if e.AnalyticE == nil {
		return fmt.Errorf("%s: guideline estimate without analytic_expected_work", req.Key)
	}
	mean, sd, err := guidelineWork(req)
	if err != nil {
		return fmt.Errorf("%s: %w", req.Key, err)
	}
	if math.Abs(*e.AnalyticE-mean) > 1e-9*mean {
		return fmt.Errorf("%s: analytic_expected_work %g, the guideline schedule's E(S;p) is %g", req.Key, *e.AnalyticE, mean)
	}
	if se := sd / math.Sqrt(float64(e.Episodes)); math.Abs(e.Work.Mean-mean) > 5*se {
		return fmt.Errorf("%s: |work.mean - E(S;p)| = %g > 5 standard errors (%g)", req.Key, math.Abs(e.Work.Mean-mean), se)
	}
	return nil
}

// guidelineWork plans req's guideline schedule as serve does and returns
// the mean and standard deviation of an episode's committed work, from
// the schedule's work profile and the life function. The five-sigma test
// uses this exact spread, not the answer's sample standard error: on
// geometric-increasing life functions nearly every episode runs to the
// end, a few thousand episodes see a handful of losses or none, and the
// sample standard error is then as low as 0.15 of the true one.
func guidelineWork(req *request) (mean, sd float64, err error) {
	var spec serve.EstimateSpec
	if err := json.Unmarshal(req.Body, &spec); err != nil {
		return 0, 0, err
	}
	if spec, err = spec.Canonicalize(); err != nil {
		return 0, 0, err
	}
	life, err := nowsim.BuildLife(spec.Life, spec.Lifespan, spec.HalfLife, spec.D)
	if err != nil {
		return 0, 0, err
	}
	pol, err := nowsim.ParsePolicy("guideline", life, spec.C, core.PlanOptions{})
	if err != nil {
		return 0, 0, err
	}
	var m2 float64
	for _, step := range sched.WorkProfile(pol.Plan.Schedule, spec.C) {
		// The owner reclaims in (From, Until] with probability
		// p(From) - p(Until); p(+Inf) = 0.
		pr := life.P(step.From)
		if !math.IsInf(step.Until, 1) {
			pr -= life.P(step.Until)
		}
		mean += pr * step.Work
		m2 += pr * step.Work * step.Work
	}
	return mean, math.Sqrt(max(0, m2-mean*mean)), nil
}
