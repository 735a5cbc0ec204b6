package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func syntheticKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("plan|life=poly|L=%d|d=3|c=1", 100+i)
	}
	return keys
}

func nodeURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	return urls
}

// Ownership is a pure function of (node set, key): input order and
// duplicates must not matter, or two ring builders (gate, csload,
// replicas) would disagree on routing.
func TestRingDeterministic(t *testing.T) {
	urls := nodeURLs(5)
	shuffled := []string{urls[3], urls[0], urls[4], urls[0], urls[2], urls[1]}
	a, b := NewRing(urls), NewRing(shuffled)
	if a.Len() != 5 || b.Len() != 5 {
		t.Fatalf("ring sizes = %d, %d, want 5 (duplicates deduped)", a.Len(), b.Len())
	}
	for _, key := range syntheticKeys(200) {
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("owner of %q differs across build orders: %s vs %s", key, a.Owner(key), b.Owner(key))
		}
	}
}

// Owners returns every node exactly once, highest preference first,
// with Owner as its head.
func TestRingOwnersPreference(t *testing.T) {
	ring := NewRing(nodeURLs(6))
	for _, key := range syntheticKeys(50) {
		owners := ring.Owners(key, ring.Len())
		if len(owners) != 6 {
			t.Fatalf("Owners(%q) returned %d nodes, want 6", key, len(owners))
		}
		if owners[0] != ring.Owner(key) {
			t.Fatalf("Owners(%q)[0] = %s, Owner = %s", key, owners[0], ring.Owner(key))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%q) repeats %s", key, o)
			}
			seen[o] = true
		}
		if got := ring.Owners(key, 2); len(got) != 2 || got[0] != owners[0] || got[1] != owners[1] {
			t.Fatalf("Owners(%q, 2) = %v, want prefix of %v", key, got, owners[:2])
		}
	}
}

// The core rendezvous property behind zero-downtime drains: removing a
// node remaps exactly that node's keys, and each remapped key lands on
// its previous second choice. Survivors' arcs are untouched.
func TestRingRemovalRemapsOnlyOwnArc(t *testing.T) {
	const n = 8
	urls := nodeURLs(n)
	keys := syntheticKeys(10_000)
	full := NewRing(urls)
	removed := urls[3]
	reduced := NewRing(append(append([]string{}, urls[:3]...), urls[4:]...))

	fromRemoved := 0
	for _, key := range keys {
		before := full.Owner(key)
		after := reduced.Owner(key)
		if before != removed {
			if after != before {
				t.Fatalf("key %q moved %s -> %s though its owner was not removed", key, before, after)
			}
			continue
		}
		fromRemoved++
		if want := full.Owners(key, 2)[1]; after != want {
			t.Fatalf("key %q remapped to %s, want its second preference %s", key, after, want)
		}
	}
	// The removed node's arc should be roughly 1/n of the key space.
	lo, hi := len(keys)/(2*n), 2*len(keys)/n
	if fromRemoved < lo || fromRemoved > hi {
		t.Errorf("removed node owned %d of %d keys, want roughly 1/%d in [%d, %d]",
			fromRemoved, len(keys), n, lo, hi)
	}
}

// Adding a node steals ~1/(n+1) of the key space — every remapped key
// moves to the new node and nowhere else.
func TestRingAdditionRemapBounds(t *testing.T) {
	const n = 8
	urls := nodeURLs(n)
	keys := syntheticKeys(10_000)
	before := NewRing(urls)
	added := "http://replica-new:8080"
	after := NewRing(append(append([]string{}, urls...), added))

	moved := 0
	for _, key := range keys {
		a, b := before.Owner(key), after.Owner(key)
		if a == b {
			continue
		}
		if b != added {
			t.Fatalf("key %q moved %s -> %s, but only the new node may gain keys", key, a, b)
		}
		moved++
	}
	lo, hi := len(keys)/(2*(n+1)), 2*len(keys)/(n+1)
	if moved < lo || moved > hi {
		t.Errorf("adding a node moved %d of %d keys, want roughly 1/%d in [%d, %d]",
			moved, len(keys), n+1, lo, hi)
	}
}

func TestRingValidate(t *testing.T) {
	ring := NewRing(nodeURLs(3))
	if err := ring.Validate(nodeURLs(3)[1]); err != nil {
		t.Errorf("Validate(member) = %v", err)
	}
	if err := ring.Validate("http://stranger:1"); err == nil {
		t.Error("Validate(non-member) succeeded")
	}
	if err := NewRing(nil).Validate("http://anyone:1"); err == nil {
		t.Error("empty ring accepted a named self")
	}
}

// Real keys share long prefixes and differ in trailing digits, and
// replica URLs differ only in their ports. Over keys that differ only
// in their last byte, every replica of a 2- or 3-node ring must still
// win a fair part of them, for any node URLs: a score whose top bits
// come mostly from the node prefix hands one replica nearly every key.
func TestRingBalanceOnLastByteKeys(t *testing.T) {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = "plan|life=uniform|L=500|c=2|" + string([]byte{byte(i)})
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3} {
		for draw := 0; draw < 300; draw++ {
			urls := make([]string, n)
			for i := range urls {
				urls[i] = fmt.Sprintf("http://127.0.0.1:%d", 1024+rng.Intn(64511))
			}
			ring := NewRing(urls)
			if ring.Len() != n {
				continue // a repeated port
			}
			won := make(map[string]int, n)
			for _, key := range keys {
				won[ring.Owner(key)]++
			}
			// Fair share is 256/n; the binomial spread is under 8 keys,
			// so half the fair share is more than 5 sigma away.
			for _, u := range ring.Nodes() {
				if 2*n*won[u] < len(keys) {
					t.Fatalf("%d replicas %v: %s owns %d of %d last-byte keys, want >= half its fair share",
						n, ring.Nodes(), u, won[u], len(keys))
				}
			}
		}
	}
}
