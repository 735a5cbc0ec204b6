package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
	node  *Node
	gets  atomic.Int64
}

// startPeer brings up a peer replica. ringOf is called with the
// server's URL to produce the full replica set (the URL is only known
// after the listener binds, so rings that must contain it are built by
// the caller).
func startPeer(t *testing.T, delay time.Duration) *peerServer {
	t.Helper()
	p := &peerServer{store: newMemStore()}
	mux := http.NewServeMux()
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && len(r.URL.Path) > len("/v1/peer/cache/") && r.URL.Path[:len("/v1/peer/cache/")] == "/v1/peer/cache/" {
			p.gets.Add(1)
			if delay > 0 {
				time.Sleep(delay)
			}
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
	t.Cleanup(node.Close)
	p.node = node
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
	t.Cleanup(n.Close)
	return n
}

// Concurrent steal fills for one key coalesce onto a single peer
// fetch: 32 goroutines miss together, the peer sees exactly one GET,
// and every caller gets the value. Run under -race this also proves
// the fillCall handoff is properly synchronized.
func TestStealFillSingleflight(t *testing.T) {
	peer := startPeer(t, 50*time.Millisecond)
	const key = "plan|life=uniform|L=450|hl=0|d=0|c=1"
	val := json.RawMessage(`{"key":"` + key + `","expected_work":42}`)
	if err := peer.store.PeerPut(key, val); err != nil {
		t.Fatal(err)
	}

	self := "http://self.test:0"
	n := newTestNode(t, self, []string{self, peer.srv.URL}, Config{Probes: 1}, newMemStore())

	const goroutines = 32
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		hits  atomic.Int64
	)
	start.Add(1)
	for i := 0; i < goroutines; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got, ok := n.Fill(context.Background(), key)
			if ok && string(got) == string(val) {
				hits.Add(1)
			}
		}()
	}
	start.Done()
	done.Wait()

	if hits.Load() != goroutines {
		t.Errorf("%d of %d concurrent fills got the value", hits.Load(), goroutines)
	}
	if got := peer.gets.Load(); got != 1 {
		t.Errorf("peer saw %d cache fetches for one key, want 1 (singleflight)", got)
	}
}

// A steal fill that no peer can satisfy reports a miss (local compute
// pays), and a share-mode node never pulls at all.
func TestFillMissAndSharePolicy(t *testing.T) {
	peer := startPeer(t, 0)
	self := "http://self.test:0"

	steal := newTestNode(t, self, []string{self, peer.srv.URL}, Config{}, newMemStore())
	if _, ok := steal.Fill(context.Background(), "plan|absent"); ok {
		t.Error("steal fill reported a hit for a key no peer holds")
	}
	if peer.gets.Load() == 0 {
		t.Error("steal fill never consulted the peer")
	}

	share := newTestNode(t, self, []string{self, peer.srv.URL}, Config{Fill: FillShare}, newMemStore())
	before := peer.gets.Load()
	if _, ok := share.Fill(context.Background(), "plan|absent"); ok {
		t.Error("share fill reported a hit")
	}
	if peer.gets.Load() != before {
		t.Error("share fill pulled from a peer; sharing is push-only")
	}
}

// Share fill pushes each offered entry to the key's next-preferred
// peer asynchronously; the peer installs it via /v1/peer/warm.
func TestShareOfferReplicates(t *testing.T) {
	peer := startPeer(t, 0)
	self := "http://self.test:0"
	n := newTestNode(t, self, []string{self, peer.srv.URL}, Config{Fill: FillShare}, newMemStore())

	const key = "plan|life=uniform|L=777|hl=0|d=0|c=1"
	val := json.RawMessage(`{"key":"` + key + `","expected_work":7}`)
	n.Offer(key, val)

	deadline := time.Now().Add(2 * time.Second)
	for !peer.store.has(key) {
		if time.Now().After(deadline) {
			t.Fatal("peer never received the pushed entry")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, _ := peer.store.PeerGet(key)
	if string(got) != string(val) {
		t.Errorf("peer stored %s, want %s", got, val)
	}

	// Steal-mode offers are a no-op.
	steal := newTestNode(t, self, []string{self, peer.srv.URL}, Config{}, newMemStore())
	steal.Offer("plan|other", val)
	time.Sleep(50 * time.Millisecond)
	if peer.store.has("plan|other") {
		t.Error("steal-mode Offer pushed to a peer")
	}
}

// The drain/restart cycle: a draining replica hands its hot working
// set to the survivor, and a restarted replica pulls back exactly its
// own arc — so the first warm wave after a rolling restart is served
// from cache on both policies.
func TestHandoffThenWarmStart(t *testing.T) {
	survivor := startPeer(t, 0)
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
	if _, err := NewNode(Config{Self: "http://a:1", Peers: []string{"http://a:1"}, Fill: "borrow"}, store); err == nil {
		t.Error("unknown fill policy accepted")
	}
	if _, err := NewNode(Config{Self: "http://a:1", Peers: []string{"http://b:1"}}, store); err == nil {
		t.Error("self outside the replica set accepted")
	}
	if _, err := NewNode(Config{Self: "http://a:1", Peers: []string{"http://a:1"}}, nil); err == nil {
		t.Error("nil store accepted")
	}
}
