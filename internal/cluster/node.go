package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Fill policies. On a local cache miss a stealing replica pulls the
// result from the key's previous holder before falling back to local
// compute; a sharing replica never pulls — instead every fresh
// computation is pushed to the key's next-preferred peers, so the copy
// is already there when a failover or restart moves traffic.
const (
	FillSteal = "steal"
	FillShare = "share"
)

// Entry is one cache entry on the peer wire: the canonical spec key and
// the stored response, opaque JSON to this package.
type Entry struct {
	Key string          `json:"key"`
	Val json.RawMessage `json:"val"`
}

// Store is the local cache a Node reads and fills. internal/serve's
// Server implements it over its plan/estimate LRUs.
type Store interface {
	// PeerGet returns the cached response for key, marshaled for the
	// wire; false on a miss.
	PeerGet(key string) (json.RawMessage, bool)
	// PeerPut installs a response received from a peer. Implementations
	// must validate the payload (a malformed or mis-keyed entry is an
	// error, not a crash).
	PeerPut(key string, val json.RawMessage) error
	// PeerHot returns up to n of the most recently used entries — the
	// working set worth handing off on drain or pulling on restart.
	PeerHot(n int) []Entry
}

// Config tunes a Node. Zero values take the defaults documented per
// field.
type Config struct {
	// Self is this replica's identity in Peers (its base URL). It is
	// excluded from fetch, push and handoff targets.
	Self string
	// Peers is the full replica set, including Self.
	Peers []string
	// Fill selects the peer fill policy: FillSteal (default) or
	// FillShare.
	Fill string
	// Timeout bounds one peer fetch attempt (default 250ms). A fetch
	// that misses it falls back — ultimately to local compute — so a
	// slow peer can delay a miss but never wedge it.
	Timeout time.Duration
	// Retries is the number of extra attempts per probed peer after a
	// transport error (default 1); Backoff is the delay before the
	// first retry, doubling per attempt (default 25ms).
	Retries int
	Backoff time.Duration
	// Probes caps how many peers a steal fill consults, in the key's
	// preference order (default 2: the key's fallback owner and the
	// next in line). A 404 moves to the next peer without retrying.
	Probes int
	// Concurrency bounds in-flight outbound peer fetches across all
	// requests (default 8); excess fills report a miss rather than
	// queueing behind a slow peer.
	Concurrency int
	// HotN is the working-set size for warm handoff: entries pushed to
	// peers on drain and pulled back on start (default 128).
	HotN int
	// Replicate is how many next-preferred peers a share-fill push
	// targets per computed key (default 1).
	Replicate int
	// Registry receives the node's metrics; a private one is created
	// when nil.
	Registry *obs.Registry
	// Client is the outbound HTTP client (default http.DefaultClient;
	// per-attempt deadlines come from Timeout, not the client).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Fill == "" {
		c.Fill = FillSteal
	}
	if c.Timeout <= 0 {
		c.Timeout = 250 * time.Millisecond
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 1
	}
	if c.Backoff <= 0 {
		c.Backoff = 25 * time.Millisecond
	}
	if c.Probes <= 0 {
		c.Probes = 2
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.HotN <= 0 {
		c.HotN = 128
	}
	if c.Replicate <= 0 {
		c.Replicate = 1
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Node is one replica's cluster participation: it serves the peer
// protocol over the local Store and implements the configured fill
// policy against the other replicas. Create with NewNode, mount with
// Routes, stop with Close.
type Node struct {
	cfg    Config
	ring   *Ring
	store  Store
	client *http.Client
	sem    chan struct{}

	mu    sync.Mutex // guards fills
	fills map[string]*fillCall

	pushCh chan pushJob
	wg     sync.WaitGroup

	fetchHit   *obs.Counter
	fetchMiss  *obs.Counter
	fetchErr   *obs.Counter
	fetchRetry *obs.Counter
	pushSent   *obs.Counter
	pushDrop   *obs.Counter
	serveHit   *obs.Counter
	serveMiss  *obs.Counter
	installed  *obs.Counter
	handoff    *obs.Counter
	warmed     *obs.Counter
}

// fillCall coalesces concurrent steal fills for one key: the leader
// fetches, everyone waits on done.
type fillCall struct {
	done chan struct{}
	val  json.RawMessage
	ok   bool
}

type pushJob struct {
	key     string
	val     json.RawMessage
	targets []string
}

// NewNode builds a node for store over cfg's replica set.
func NewNode(cfg Config, store Store) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Fill != FillSteal && cfg.Fill != FillShare {
		return nil, fmt.Errorf("cluster: unknown fill policy %q (want %s or %s)", cfg.Fill, FillSteal, FillShare)
	}
	if store == nil {
		return nil, errors.New("cluster: nil store")
	}
	ring := NewRing(cfg.Peers)
	if err := ring.Validate(cfg.Self); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:    cfg,
		ring:   ring,
		store:  store,
		client: cfg.Client,
		sem:    make(chan struct{}, cfg.Concurrency),
		fills:  make(map[string]*fillCall),
		pushCh: make(chan pushJob, 256),
	}
	{
		reg := cfg.Registry
		n.fetchHit = reg.Counter(obs.Labeled("cs_cluster_peer_fetch_total", "outcome", "hit"), "steal fills satisfied by a peer")
		n.fetchMiss = reg.Counter(obs.Labeled("cs_cluster_peer_fetch_total", "outcome", "miss"), "steal fills no probed peer could satisfy")
		n.fetchErr = reg.Counter(obs.Labeled("cs_cluster_peer_fetch_total", "outcome", "error"), "peer fetch attempts that failed in transport")
		n.fetchRetry = reg.Counter("cs_cluster_peer_fetch_retries_total", "peer fetch attempts retried after a transport error")
		n.pushSent = reg.Counter("cs_cluster_push_total", "share-fill replications pushed to peers")
		n.pushDrop = reg.Counter("cs_cluster_push_dropped_total", "share-fill replications dropped because the push queue was full")
		n.serveHit = reg.Counter(obs.Labeled("cs_cluster_peer_serve_total", "outcome", "hit"), "peer cache lookups served from the local store")
		n.serveMiss = reg.Counter(obs.Labeled("cs_cluster_peer_serve_total", "outcome", "miss"), "peer cache lookups that missed the local store")
		n.installed = reg.Counter("cs_cluster_warm_installed_total", "entries installed into the local store by peer warm pushes")
		n.handoff = reg.Counter("cs_cluster_handoff_entries_total", "hot entries pushed to peers during drain")
		n.warmed = reg.Counter("cs_cluster_warm_start_total", "entries pulled from peers at startup")
	}
	n.wg.Add(1)
	go n.pusher()
	return n, nil
}

// Fill implements the serve-side PeerFiller hook: under steal it probes
// the key's preferred peers for a cached copy; under share it reports a
// miss immediately (sharing is push-only — the copy either arrived
// ahead of time or the miss computes locally). Concurrent fills for one
// key coalesce onto a single peer fetch.
func (n *Node) Fill(ctx context.Context, key string) (json.RawMessage, bool) {
	if n.cfg.Fill != FillSteal {
		return nil, false
	}
	n.mu.Lock()
	if c, ok := n.fills[key]; ok {
		n.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.ok
		case <-ctx.Done():
			return nil, false
		}
	}
	c := &fillCall{done: make(chan struct{})}
	n.fills[key] = c
	n.mu.Unlock()

	c.val, c.ok = n.fetch(ctx, key)
	n.mu.Lock()
	delete(n.fills, key)
	n.mu.Unlock()
	close(c.done)
	return c.val, c.ok
}

// fetch walks the key's peer preference order under the concurrency
// bound, retrying transport errors with exponential backoff and
// treating a 404 as an authoritative miss at that peer.
func (n *Node) fetch(ctx context.Context, key string) (json.RawMessage, bool) {
	select {
	case n.sem <- struct{}{}:
		defer func() { <-n.sem }()
	case <-ctx.Done():
		return nil, false
	}
	probed := 0
	for _, peer := range n.ring.Owners(key, n.ring.Len()) {
		if peer == n.cfg.Self {
			continue
		}
		if probed >= n.cfg.Probes {
			break
		}
		probed++
		backoff := n.cfg.Backoff
		for attempt := 0; attempt <= n.cfg.Retries; attempt++ {
			if attempt > 0 {
				n.fetchRetry.Inc()
				select {
				case <-time.After(backoff):
				case <-ctx.Done():
					n.fetchMiss.Inc()
					return nil, false
				}
				backoff *= 2
			}
			val, found, retryable := n.fetchOne(ctx, peer, key)
			if found {
				n.fetchHit.Inc()
				return val, true
			}
			if !retryable {
				break // authoritative miss at this peer: move on
			}
			n.fetchErr.Inc()
		}
		if ctx.Err() != nil {
			break
		}
	}
	n.fetchMiss.Inc()
	return nil, false
}

// fetchOne performs one GET /v1/peer/cache/{key} against peer.
// retryable distinguishes transport/server errors (worth retrying)
// from an authoritative 404 miss.
func (n *Node) fetchOne(ctx context.Context, peer, key string) (val json.RawMessage, found, retryable bool) {
	actx, cancel := context.WithTimeout(ctx, n.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, peer+"/v1/peer/cache/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, false, false
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, false, true
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes))
		if err != nil {
			return nil, false, true
		}
		return body, true, false
	case http.StatusNotFound:
		return nil, false, false
	default:
		return nil, false, true
	}
}

// Offer publishes a freshly computed response for push replication.
// Under steal it is a no-op; under share the entry is queued for the
// key's next-preferred peers and pushed asynchronously — a full queue
// drops the offer (replication is an optimization, never backpressure
// on the serving path).
func (n *Node) Offer(key string, val json.RawMessage) {
	if n.cfg.Fill != FillShare {
		return
	}
	targets := n.pushTargets(key, n.cfg.Replicate)
	if len(targets) == 0 {
		return
	}
	select {
	case n.pushCh <- pushJob{key: key, val: val, targets: targets}:
	default:
		n.pushDrop.Inc()
	}
}

// pushTargets returns up to k peers in the key's preference order,
// excluding self.
func (n *Node) pushTargets(key string, k int) []string {
	var targets []string
	for _, peer := range n.ring.Owners(key, n.ring.Len()) {
		if peer == n.cfg.Self {
			continue
		}
		targets = append(targets, peer)
		if len(targets) >= k {
			break
		}
	}
	return targets
}

func (n *Node) pusher() {
	defer n.wg.Done()
	for job := range n.pushCh {
		for _, target := range job.targets {
			if n.pushWarm(context.Background(), target, []Entry{{Key: job.key, Val: job.val}}) == nil {
				n.pushSent.Inc()
			}
		}
	}
}

// warmRequest is the POST /v1/peer/warm body.
type warmRequest struct {
	Entries []Entry `json:"entries"`
}

// warmResponse reports how many entries the receiver installed.
type warmResponse struct {
	Installed int `json:"installed"`
}

// hotResponse is the GET /v1/peer/hot body.
type hotResponse struct {
	Entries []Entry `json:"entries"`
}

// pushWarm POSTs entries to target's /v1/peer/warm.
func (n *Node) pushWarm(ctx context.Context, target string, entries []Entry) error {
	body, err := json.Marshal(warmRequest{Entries: entries})
	if err != nil {
		return err
	}
	actx, cancel := context.WithTimeout(ctx, 4*n.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, target+"/v1/peer/warm", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: warm push to %s: status %d", target, resp.StatusCode)
	}
	return nil
}

// Handoff pushes the local store's hottest entries to their
// next-preferred peers — the drain-time half of warm handoff, called
// after this replica stops accepting traffic so its working set
// survives the restart somewhere steal can find it (and share-filled
// peers get any keys the compute-time pushes missed). Returns the
// number of entries pushed.
func (n *Node) Handoff(ctx context.Context) int {
	entries := n.store.PeerHot(n.cfg.HotN)
	byTarget := make(map[string][]Entry)
	for _, e := range entries {
		targets := n.pushTargets(e.Key, 1)
		if len(targets) == 0 {
			continue
		}
		byTarget[targets[0]] = append(byTarget[targets[0]], e)
	}
	pushed := 0
	for target, batch := range byTarget {
		if ctx.Err() != nil {
			break
		}
		if n.pushWarm(ctx, target, batch) == nil {
			pushed += len(batch)
		}
	}
	n.handoff.Add(uint64(pushed))
	return pushed
}

// WarmStart pulls each peer's hot working set and installs the entries
// this replica owns — the restart-time half of warm handoff, called
// before serving so the first warm wave hits a populated cache instead
// of stampeding the worker pool. Returns the number of entries
// installed.
func (n *Node) WarmStart(ctx context.Context) int {
	installed := 0
	for _, peer := range n.ring.Nodes() {
		if peer == n.cfg.Self || ctx.Err() != nil {
			continue
		}
		entries, err := n.pullHot(ctx, peer)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if n.cfg.Self != "" && n.ring.Owner(e.Key) != n.cfg.Self {
				continue // not our arc: the gate will not route it here
			}
			if n.store.PeerPut(e.Key, e.Val) == nil {
				installed++
			}
		}
	}
	n.warmed.Add(uint64(installed))
	return installed
}

// pullHot GETs peer's /v1/peer/hot working set.
func (n *Node) pullHot(ctx context.Context, peer string) ([]Entry, error) {
	actx, cancel := context.WithTimeout(ctx, 4*n.cfg.Timeout)
	defer cancel()
	u := peer + "/v1/peer/hot?n=" + strconv.Itoa(n.cfg.HotN)
	req, err := http.NewRequestWithContext(actx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: hot pull from %s: status %d", peer, resp.StatusCode)
	}
	var hot hotResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxWarmBytes)).Decode(&hot); err != nil {
		return nil, err
	}
	return hot.Entries, nil
}

// Wire-size caps: one cached response, and one warm batch.
const (
	maxEntryBytes = 1 << 20
	maxWarmBytes  = 16 << 20
)

// Routes mounts the peer protocol on mux:
//
//	GET  /v1/peer/cache/{key}  one entry, 404 on miss
//	POST /v1/peer/warm         install pushed entries
//	GET  /v1/peer/hot?n=N      the hottest N local entries
//
// Peer traffic is replica-to-replica: it is deliberately outside the
// SLO-tracked user routes and outside the serving path's pool (lookups
// touch only the cache).
func (n *Node) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/peer/cache/{key}", n.handleCacheGet)
	mux.HandleFunc("POST /v1/peer/warm", n.handleWarm)
	mux.HandleFunc("GET /v1/peer/hot", n.handleHot)
}

func (n *Node) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	val, ok := n.store.PeerGet(key)
	if !ok {
		n.serveMiss.Inc()
		http.Error(w, "miss", http.StatusNotFound)
		return
	}
	n.serveHit.Inc()
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(val)
}

func (n *Node) handleWarm(w http.ResponseWriter, r *http.Request) {
	var req warmRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxWarmBytes))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad warm body: "+err.Error(), http.StatusBadRequest)
		return
	}
	installed := 0
	for _, e := range req.Entries {
		if e.Key == "" || len(e.Val) == 0 || len(e.Val) > maxEntryBytes {
			continue
		}
		if n.store.PeerPut(e.Key, e.Val) == nil {
			installed++
		}
	}
	n.installed.Add(uint64(installed))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(warmResponse{Installed: installed})
}

func (n *Node) handleHot(w http.ResponseWriter, r *http.Request) {
	count := n.cfg.HotN
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		if v < count {
			count = v
		}
	}
	entries := n.store.PeerHot(count)
	if entries == nil {
		entries = []Entry{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(hotResponse{Entries: entries})
}

// Fill policy and ring accessors (csserve's healthz/log lines).
func (n *Node) FillPolicy() string { return n.cfg.Fill }
func (n *Node) Ring() *Ring        { return n.ring }

// Close stops the push worker. Call after the HTTP layer is down.
func (n *Node) Close() {
	close(n.pushCh)
	n.wg.Wait()
}
