// Package cluster is the horizontal scaling layer behind csgate and a
// clustered csserve fleet: a rendezvous hash ring that assigns every
// canonical plan/estimate cache key a stable owner replica, and a peer
// protocol (Node) that lets replicas fill cache misses from each other
// instead of recomputing — the paper's owner/borrower asymmetry lifted
// one level up, where a replica "steals" a result from the key's
// previous holder on a miss. Steal is the only fill policy: measured
// against push-on-compute sharing (Van Houdt's stealing-vs-sharing
// framing) on this system's cluster workload, it served more requests
// per second with fewer fresh computations.
//
// The package depends only on net/http, encoding/json and internal/obs;
// the cache it fills is abstracted behind the Store interface, which
// internal/serve's Server implements.
package cluster

import (
	"fmt"
	"sort"
)

// Ring is an immutable rendezvous (highest-random-weight) hash over a
// replica set. Every key independently ranks all replicas by
// hash(replica, key); the top-ranked replica owns the key. The property
// that makes this the right structure for a serving fleet: removing a
// replica remaps exactly the keys it owned (each promotes its #2
// choice), and adding one remaps exactly the ~1/N of keys the newcomer
// now wins — no other key moves, so a rolling restart never invalidates
// the surviving replicas' caches.
//
// Membership changes build a new Ring (the node list is copied and
// never mutated), so readers need no locks; the gate swaps health
// state, not ring structure.
type Ring struct {
	nodes []string
}

// NewRing builds a ring over the given replica identities (base URLs in
// practice). Duplicates are dropped; order does not matter — ownership
// depends only on the set. An empty ring is legal and owns nothing.
func NewRing(nodes []string) *Ring {
	seen := make(map[string]struct{}, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if _, ok := seen[n]; ok || n == "" {
			continue
		}
		seen[n] = struct{}{}
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	return &Ring{nodes: uniq}
}

// Len returns the replica count.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns a copy of the replica set in sorted order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// score is the 64-bit FNV-1a hash of node and key with a separator
// byte, so ("ab","c") and ("a","bc") never collide.
func score(node, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= prime64
	}
	h ^= 0xff
	h *= prime64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// Owner returns the replica that owns key, "" on an empty ring.
func (r *Ring) Owner(key string) string {
	best, bestScore := "", uint64(0)
	for _, n := range r.nodes {
		s := score(n, key)
		if best == "" || s > bestScore || (s == bestScore && n < best) {
			best, bestScore = n, s
		}
	}
	return best
}

// Owners returns up to n replicas in preference order for key: the
// owner first, then the replica that would take over if the owner
// drained, and so on. This is the fallback order the gate walks during
// a rolling restart and the probe order a stealing replica uses — the
// key's previous holder is whichever peer ranks highest after self.
func (r *Ring) Owners(key string, n int) []string {
	if n <= 0 || len(r.nodes) == 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	type ranked struct {
		node  string
		score uint64
	}
	rs := make([]ranked, len(r.nodes))
	for i, node := range r.nodes {
		rs[i] = ranked{node: node, score: score(node, key)}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].score != rs[j].score {
			return rs[i].score > rs[j].score
		}
		return rs[i].node < rs[j].node
	})
	out := make([]string, n)
	for i := range out {
		out[i] = rs[i].node
	}
	return out
}

// Validate reports an error when self is named but absent from the
// replica set — the misconfiguration where a replica would steal from
// (or hand off to) a ring it is not part of.
func (r *Ring) Validate(self string) error {
	if self == "" {
		return nil
	}
	for _, n := range r.nodes {
		if n == self {
			return nil
		}
	}
	return fmt.Errorf("cluster: self %q is not in the replica set %v", self, r.nodes)
}
