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
	"time"

	"repro/internal/obs"
)

// FillSteal is the one peer fill policy: on a local cache miss a
// replica pulls the result from the key's previous holder before
// falling back to local compute.
const FillSteal = "steal"

// Steal-fill fetch shape: each probed peer gets one retry after a
// transport error, starting at fetchBackoff and doubling; a fill
// consults at most fetchProbes peers in the key's preference order
// (its fallback owner and the next in line). A 404 moves to the next
// peer without retrying.
const (
	fetchRetries = 1
	fetchBackoff = 25 * time.Millisecond
	fetchProbes  = 2
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
	// excluded from fetch and handoff targets.
	Self string
	// Peers is the full replica set, including Self.
	Peers []string
	// Fill names the peer fill policy; FillSteal (or "", its default)
	// is the only one.
	Fill string
	// Timeout bounds one peer fetch attempt (default 250ms). A fetch
	// that misses it falls back — ultimately to local compute — so a
	// slow peer can delay a miss but never wedge it.
	Timeout time.Duration
	// Concurrency bounds in-flight outbound peer fetches across all
	// requests (default 8); excess fills wait for a slot until their
	// request's context ends, then report a miss.
	Concurrency int
	// HotN is the working-set size for warm handoff: entries pushed to
	// peers on drain and pulled back on start (default 128).
	HotN int
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
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.HotN <= 0 {
		c.HotN = 128
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
// protocol over the local Store and steal-fills misses from the other
// replicas. Create with NewNode, mount with Routes.
type Node struct {
	cfg    Config
	ring   *Ring
	store  Store
	client *http.Client
	sem    chan struct{}

	fetchHit   *obs.Counter
	fetchMiss  *obs.Counter
	fetchErr   *obs.Counter
	fetchRetry *obs.Counter
	serveHit   *obs.Counter
	serveMiss  *obs.Counter
	installed  *obs.Counter
	handoff    *obs.Counter
	warmed     *obs.Counter
}

// NewNode builds a node for store over cfg's replica set.
func NewNode(cfg Config, store Store) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Fill != FillSteal {
		return nil, fmt.Errorf("cluster: unknown fill policy %q (want %s)", cfg.Fill, FillSteal)
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
	}
	{
		reg := cfg.Registry
		n.fetchHit = reg.Counter(obs.Labeled("cs_cluster_peer_fetch_total", "outcome", "hit"), "steal fills satisfied by a peer")
		n.fetchMiss = reg.Counter(obs.Labeled("cs_cluster_peer_fetch_total", "outcome", "miss"), "steal fills no probed peer could satisfy")
		n.fetchErr = reg.Counter(obs.Labeled("cs_cluster_peer_fetch_total", "outcome", "error"), "peer fetch attempts that failed in transport")
		n.fetchRetry = reg.Counter("cs_cluster_peer_fetch_retries_total", "peer fetch attempts retried after a transport error")
		n.serveHit = reg.Counter(obs.Labeled("cs_cluster_peer_serve_total", "outcome", "hit"), "peer cache lookups served from the local store")
		n.serveMiss = reg.Counter(obs.Labeled("cs_cluster_peer_serve_total", "outcome", "miss"), "peer cache lookups that missed the local store")
		n.installed = reg.Counter("cs_cluster_warm_installed_total", "entries installed into the local store by peer warm pushes")
		n.handoff = reg.Counter("cs_cluster_handoff_entries_total", "hot entries pushed to peers during drain")
		n.warmed = reg.Counter("cs_cluster_warm_start_total", "entries pulled from peers at startup")
	}
	return n, nil
}

// Fill implements the serve-side PeerFiller hook: it probes the key's
// preferred peers for a cached copy under the concurrency bound,
// retrying transport errors with exponential backoff and treating a
// 404 as an authoritative miss at that peer. It does not coalesce: the
// caller runs it inside its per-key singleflight, so at most one fill
// per key is in flight.
func (n *Node) Fill(ctx context.Context, key string) (json.RawMessage, bool) {
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
		if probed >= fetchProbes {
			break
		}
		probed++
		backoff := fetchBackoff
		for attempt := 0; attempt <= fetchRetries; attempt++ {
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

// nextOwner returns the peer that ranks highest for key after self —
// where the key's traffic goes while this replica is away; "" when
// there is no other peer.
func (n *Node) nextOwner(key string) string {
	for _, peer := range n.ring.Owners(key, 2) {
		if peer != n.cfg.Self {
			return peer
		}
	}
	return ""
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

// Handoff pushes the local store's hottest entries to their next
// owners — the drain-time half of warm handoff, called after this
// replica stops accepting traffic so its working set survives the
// restart on the peers the gate fails over to. Returns the number of
// entries pushed.
func (n *Node) Handoff(ctx context.Context) int {
	entries := n.store.PeerHot(n.cfg.HotN)
	byTarget := make(map[string][]Entry)
	for _, e := range entries {
		if target := n.nextOwner(e.Key); target != "" {
			byTarget[target] = append(byTarget[target], e)
		}
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
// of stampeding the compute pool. Returns the number of entries
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

// Ring returns the node's replica ring.
func (n *Node) Ring() *Ring { return n.ring }

// Close is a no-op: a Node owns no goroutines or connections beyond
// its HTTP client's. It stays so callers can release a Node
// uniformly.
func (n *Node) Close() {}
