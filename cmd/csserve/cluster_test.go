package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// replicaProc is one csserve process under test.
type replicaProc struct {
	addr   string
	stop   chan struct{}
	code   chan int
	stderr *bytes.Buffer
}

// reservePorts binds and immediately releases n ephemeral ports, so a
// cluster's replica set can be configured before any replica starts
// (every -self/-peers list needs all addresses up front).
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = lis.Addr().String()
		lis.Close()
	}
	return addrs
}

// startReplica boots runApp as one cluster member and waits for ready
// (which follows the warm start, so a returned replica has already
// pulled its arc from the peers).
func startReplica(t *testing.T, addr string, all []string) *replicaProc {
	t.Helper()
	peers := make([]string, len(all))
	for i, a := range all {
		peers[i] = "http://" + a
	}
	p := &replicaProc{
		stop:   make(chan struct{}),
		code:   make(chan int, 1),
		stderr: &bytes.Buffer{},
	}
	ready := make(chan string, 1)
	var stdout bytes.Buffer
	// Hand the goroutine locals, not p: p.addr is written after spawn.
	codeCh, errBuf, stopCh := p.code, p.stderr, p.stop
	go func() {
		codeCh <- runApp([]string{
			"-addr", addr,
			"-self", "http://" + addr,
			"-peers", strings.Join(peers, ","),
			"-workers", "2",
			"-grace", "5s",
			"-runtime-sample", "-1s",
		}, &stdout, errBuf, ready, stopCh)
	}()
	select {
	case p.addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("replica %s never became ready; stderr: %s", addr, p.stderr.String())
	}
	return p
}

// drain stops the replica and waits for a clean exit — the full
// sequence: healthz 503, hot handoff to peers, listener shutdown.
func (p *replicaProc) drain(t *testing.T) {
	t.Helper()
	close(p.stop)
	select {
	case c := <-p.code:
		if c != 0 {
			t.Fatalf("replica %s exited %d; stderr: %s", p.addr, c, p.stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("replica %s never exited", p.addr)
	}
}

type clusterPlanResponse struct {
	Key        string `json:"key"`
	Cached     bool   `json:"cached"`
	Coalesced  bool   `json:"coalesced"`
	PeerFilled bool   `json:"peer_filled"`
	Error      string `json:"error"`
}

// The rolling-restart invariant, end to end under steal fill: a
// two-replica cluster computes a key set once (routed to owners the
// way csgate and csload -targets route), one replica drains and
// restarts, and the next routed wave is served entirely without fresh
// computation — every response is a cache hit or a peer fill.
func TestClusterWarmRestart(t *testing.T) {
	t.Run(cluster.FillSteal, func(t *testing.T) {
		addrs := reservePorts(t, 2)
		r0 := startReplica(t, addrs[0], addrs)
		r1 := startReplica(t, addrs[1], addrs)
		defer func() { // r0 may already be drained; guard with select
			for _, p := range []*replicaProc{r0, r1} {
				select {
				case <-p.stop:
				default:
					p.drain(t)
				}
			}
		}()

		// Route each body to its key's owner, exactly as the gate
		// would.
		ring := cluster.NewRing([]string{"http://" + addrs[0], "http://" + addrs[1]})
		post := func(body string) clusterPlanResponse {
			t.Helper()
			key, err := serve.RequestKey("plan", []byte(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ring.Owner(key)+"/v1/plan", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("posting %s: %v", body, err)
			}
			defer resp.Body.Close()
			var out clusterPlanResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("status %d for %s: %s", resp.StatusCode, body, out.Error)
			}
			return out
		}

		bodies := make([]string, 16)
		for i := range bodies {
			bodies[i] = fmt.Sprintf(`{"life":"uniform","lifespan":%d}`, 300+i)
		}
		// Cold wave: everything computes fresh, each key on its owner.
		for _, b := range bodies {
			if out := post(b); out.Cached || out.PeerFilled {
				t.Fatalf("cold wave response for %s was already cached/peer-filled", b)
			}
		}

		// Rolling restart of replica 0: drain (handoff to r1), then
		// boot a fresh process on the same address (warm start pulls
		// its arc back before ready).
		r0.drain(t)
		r0 = startReplica(t, addrs[0], addrs)

		// Warm wave: zero fresh computations cluster-wide. Keys owned
		// by r1 never left its cache; keys owned by r0 came back via
		// handoff + warm start (or a peer fill).
		for _, b := range bodies {
			out := post(b)
			if !out.Cached && !out.Coalesced && !out.PeerFilled {
				t.Errorf("post-restart wave recomputed %s", b)
			}
		}
	})
}
