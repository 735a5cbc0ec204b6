package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// spec is a request body the cached-compute path can key and time out.
type spec interface {
	Key() string
	timeout() int
}

// answer is a pointer to a response body: it carries the Served stamps
// and can check a copy received from a peer.
type answer[R any] interface {
	*R
	served() *Served
	check(key string) error
}

// route is one cached computation — /v1/plan or /v1/estimate. Only
// normalize and compute differ between the two; decoding, keying, the
// cache, singleflight, peer fill, the admission pool, stamping and
// encoding are shared by ServeHTTP.
type route[S spec, R any, P answer[R]] struct {
	srv       *Server
	cache     *Cache
	normalize func(S) (S, error)
	compute   func(ctx context.Context, spec S, key string) (R, error)
}

// ServeHTTP answers one request: decode → normalize → key → cache →
// singleflight{peer fill → pool → compute → put} → stamp → encode.
func (rt *route[S, R, P]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := rt.srv
	reqStart := time.Now()
	var spec S
	if err := decode(w, r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	spec, err := rt.normalize(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := spec.Key()
	trace := obs.ReqTraceFrom(r.Context())
	endCache := trace.StartPhase(obs.PhaseCache)
	if v, ok := rt.cache.Get(key); ok {
		endCache("outcome", "hit")
		resp := P(new(R))
		*resp = v.(R)
		resp.served().Cached = true
		resp.served().ElapsedMS = msSince(reqStart)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	endCache("outcome", "miss")
	ctx, cancel := s.requestCtx(r, spec.timeout())
	defer cancel()
	flightStart := time.Now()
	v, shared, leader, err := s.flights.Do(ctx, key, func(runCtx context.Context) (any, error) {
		// In a cluster, a miss first tries the key's previous holder —
		// inside the singleflight, so N concurrent misses cause at most
		// one peer fetch; only when no peer has it does local compute
		// pay the full cost.
		if resp, ok := rt.peerFill(runCtx, key); ok {
			return resp, nil
		}
		var resp R
		var compErr error
		if poolErr := s.pool.Do(runCtx, func(taskCtx context.Context) {
			endCompute := obs.StartPhase(taskCtx, obs.PhaseCompute)
			resp, compErr = rt.compute(taskCtx, spec, key)
			endCompute()
		}); poolErr != nil {
			return nil, poolErr
		}
		if compErr != nil {
			return nil, compErr
		}
		rt.cache.Put(key, resp)
		return resp, nil
	})
	if !leader {
		// A follower's entire flight wait is coalesce time: it rode on
		// the leader's queue + compute.
		trace.AddPhase(obs.PhaseCoalesce, flightStart, time.Since(flightStart))
	}
	if shared {
		s.coalesced.Inc()
	}
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	resp := P(new(R))
	*resp = v.(R)
	resp.served().Coalesced = shared
	resp.served().ElapsedMS = msSince(reqStart)
	writeJSON(w, http.StatusOK, resp)
}

// peerFill asks the cluster for a cached answer on a local miss,
// installing an accepted one into the local cache. A fetch that fails
// or returns a malformed entry is a peer miss. Runs inside the
// singleflight leader, on the group-owned context, so the peer phase
// bills to the request that triggered the fetch.
func (rt *route[S, R, P]) peerFill(ctx context.Context, key string) (resp R, ok bool) {
	s := rt.srv
	if s.peers == nil {
		return resp, false
	}
	endPeer := obs.StartPhase(ctx, obs.PhasePeer)
	if raw, fetched := s.peers.Fill(ctx, key); fetched {
		if resp, err := rt.install(key, raw); err == nil {
			P(&resp).served().PeerFilled = true
			endPeer("outcome", "hit")
			s.peerFilled.Inc()
			return resp, true
		}
	}
	endPeer("outcome", "miss")
	s.peerMissed.Inc()
	return resp, false
}

// install decodes a peer's entry for key, checks it and stores it
// unstamped, exactly as the local compute path stores its answers, so a
// peer-filled entry is indistinguishable from a computed one on the
// next hit.
func (rt *route[S, R, P]) install(key string, raw json.RawMessage) (R, error) {
	var resp R
	if err := json.Unmarshal(raw, &resp); err != nil {
		return resp, fmt.Errorf("serve: bad peer entry for %q: %w", key, err)
	}
	if err := P(&resp).check(key); err != nil {
		return resp, fmt.Errorf("serve: bad peer entry for %q: %w", key, err)
	}
	*P(&resp).served() = Served{}
	rt.cache.Put(key, resp)
	return resp, nil
}
