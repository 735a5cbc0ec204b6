package serve

// Cluster participation. A clustered Server plays two roles:
//
//   - it consumes peer fill through the PeerFiller hook — consulted on
//     a cache miss inside the per-key singleflight, so concurrent
//     misses on one key cause at most one peer fetch;
//   - it is the cluster's local Store — PeerGet/PeerPut/PeerHot
//     implement internal/cluster.Store over the plan and estimate LRUs,
//     serving the peer protocol endpoints a cluster.Node mounts.
//
// Responses cross the peer wire as their JSON encodings. An entry from
// a peer is installed only when it is well-formed for its key (see the
// response types' check methods), and with its Served stamps zeroed,
// exactly as the local compute path stores unstamped values.

import (
	"context"
	"encoding/json"
	"strings"

	"repro/internal/cluster"
)

// PeerFiller is the cluster fill hook (implemented by cluster.Node).
type PeerFiller interface {
	// Fill tries to satisfy a cache miss from a peer; the returned
	// payload is a marshaled PlanResponse or EstimateResponse. The
	// server calls it at most once per key at a time, so it need not
	// coalesce.
	Fill(ctx context.Context, key string) (json.RawMessage, bool)
}

// SetPeers installs the cluster fill hook. Call before the server
// starts handling requests; a nil hook (the default) disables peer
// fill.
func (s *Server) SetPeers(p PeerFiller) { s.peers = p }

// PeerGet implements cluster.Store: the cached response for key,
// marshaled for the wire. The lookup goes through the ordinary cache
// path, so a peer steal bumps the entry's recency — a key the cluster
// keeps asking for stays in this replica's working set. Estimate keys
// carry the "est|" prefix; everything else is a plan key.
func (s *Server) PeerGet(key string) (json.RawMessage, bool) {
	c := s.plan.cache
	if strings.HasPrefix(key, "est|") {
		c = s.estimate.cache
	}
	if v, ok := c.Get(key); ok {
		if raw, err := json.Marshal(v); err == nil {
			return raw, true
		}
	}
	return nil, false
}

// PeerPut implements cluster.Store: check and install an entry received
// from a peer (warm push, drain handoff, or startup pull).
func (s *Server) PeerPut(key string, val json.RawMessage) error {
	var err error
	if strings.HasPrefix(key, "est|") {
		_, err = s.estimate.install(key, val)
	} else {
		_, err = s.plan.install(key, val)
	}
	return err
}

// PeerHot implements cluster.Store: the hottest entries across both
// caches, plan entries first (they are the cheap-to-move, expensive-
// to-recompute majority of the working set).
func (s *Server) PeerHot(n int) []cluster.Entry {
	if n <= 0 {
		return nil
	}
	entries := make([]cluster.Entry, 0, n)
	appendHot := func(c *Cache, quota int) {
		keys, vals := c.Hottest(quota)
		for i, key := range keys {
			raw, err := json.Marshal(vals[i])
			if err != nil {
				continue
			}
			entries = append(entries, cluster.Entry{Key: key, Val: raw})
		}
	}
	appendHot(s.plan.cache, n)
	if len(entries) < n {
		appendHot(s.estimate.cache, n-len(entries))
	}
	return entries
}
