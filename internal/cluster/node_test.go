package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// memStore is a map-backed Store; hot order is most-recently-put
// first, which is all the warm-handoff tests need.
type memStore struct {
	mu    sync.Mutex
	m     map[string]json.RawMessage
	order []string // put order, oldest first
}

func newMemStore() *memStore { return &memStore{m: map[string]json.RawMessage{}} }

func (s *memStore) PeerGet(key string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

func (s *memStore) PeerPut(key string, val json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; !ok {
		s.order = append(s.order, key)
	}
	s.m[key] = val
	return nil
}

func (s *memStore) PeerHot(n int) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Entry
	for i := len(s.order) - 1; i >= 0 && len(out) < n; i-- {
		out = append(out, Entry{Key: s.order[i], Val: s.m[s.order[i]]})
	}
	return out
}

func (s *memStore) has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[key]
	return ok
}

func (s *memStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// peerServer runs a real Node's peer protocol over a memStore on an
// httptest listener, counting cache lookups.
type peerServer struct {
	store *memStore
	srv   *httptest.Server
	gets  atomic.Int64
}

// startPeer brings up a single-replica peer.
func startPeer(t *testing.T) *peerServer {
	t.Helper()
	p := &peerServer{store: newMemStore()}
	mux := http.NewServeMux()
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/peer/cache/") {
			p.gets.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(p.srv.Close)
	node, err := NewNode(Config{
		Self:  p.srv.URL,
		Peers: []string{p.srv.URL},
	}, p.store)
	if err != nil {
		t.Fatal(err)
	}
	node.Routes(mux)
	return p
}

func newTestNode(t *testing.T, self string, peers []string, cfg Config, store Store) *Node {
	t.Helper()
	cfg.Self = self
	cfg.Peers = peers
	n, err := NewNode(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// A steal fill that no peer can satisfy reports a miss (local compute
// pays) after consulting the peer.
func TestFillMiss(t *testing.T) {
	peer := startPeer(t)
	self := "http://self.test:0"

	steal := newTestNode(t, self, []string{self, peer.srv.URL}, Config{}, newMemStore())
	if _, ok := steal.Fill(context.Background(), "plan|absent"); ok {
		t.Error("steal fill reported a hit for a key no peer holds")
	}
	if peer.gets.Load() == 0 {
		t.Error("steal fill never consulted the peer")
	}
}

// The drain/restart cycle: a draining replica hands its hot working
// set to the survivor, and a restarted replica pulls back exactly its
// own arc — so the first warm wave after a rolling restart is served
// from cache.
func TestHandoffThenWarmStart(t *testing.T) {
	survivor := startPeer(t)
	self := "http://restarting.test:0"
	peers := []string{self, survivor.srv.URL}

	// The "old" process: a store with 40 hot entries across both arcs.
	oldStore := newMemStore()
	old := newTestNode(t, self, peers, Config{HotN: 64}, oldStore)
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = "plan|synthetic|" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		val := json.RawMessage(`{"k":"` + keys[i] + `"}`)
		if err := oldStore.PeerPut(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	if pushed := old.Handoff(context.Background()); pushed != len(keys) {
		t.Fatalf("Handoff pushed %d entries, want %d (single survivor takes all)", pushed, len(keys))
	}
	if survivor.store.len() != len(keys) {
		t.Fatalf("survivor holds %d entries after handoff, want %d", survivor.store.len(), len(keys))
	}

	// The "new" process: empty store, same ring. WarmStart must install
	// exactly the keys this replica owns — the others stay with the
	// survivor, where routed traffic (or a steal) will find them.
	newStore := newMemStore()
	restarted := newTestNode(t, self, peers, Config{HotN: 64}, newStore)
	installed := restarted.WarmStart(context.Background())

	owned := 0
	for _, key := range keys {
		if restarted.Ring().Owner(key) == self {
			owned++
			if !newStore.has(key) {
				t.Errorf("own-arc key %q missing after warm start", key)
			}
		} else if newStore.has(key) {
			t.Errorf("warm start installed %q, which belongs to the survivor", key)
		}
	}
	if installed != owned {
		t.Errorf("WarmStart reported %d installs, want %d (own arc of %d keys)", installed, owned, len(keys))
	}
	if owned == 0 {
		t.Fatal("test key set has no keys on the restarting replica's arc; widen the key set")
	}
}

// Config validation failures.
func TestNewNodeRejects(t *testing.T) {
	store := newMemStore()
	for _, fill := range []string{"borrow", "share"} {
		if _, err := NewNode(Config{Self: "http://a:1", Peers: []string{"http://a:1"}, Fill: fill}, store); err == nil {
			t.Errorf("fill policy %q accepted", fill)
		}
	}
	if _, err := NewNode(Config{Self: "http://a:1", Peers: []string{"http://b:1"}}, store); err == nil {
		t.Error("self outside the replica set accepted")
	}
	if _, err := NewNode(Config{Self: "http://a:1", Peers: []string{"http://a:1"}}, nil); err == nil {
		t.Error("nil store accepted")
	}
}
