package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry in the classic Prometheus text
// exposition format (version 0.0.4), whatever the Accept header asks
// for.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// NewMux builds an http.ServeMux exposing /metrics (Prometheus text,
// when reg is non-nil) and the /debug/pprof endpoints — explicitly
// wired rather than via the pprof package's DefaultServeMux side
// effects, so importing obs never mutates global HTTP state.
func NewMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running metrics/pprof HTTP server.
type Server struct {
	srv *http.Server
	lis net.Listener
}

// Serve starts an HTTP server on addr (e.g. "localhost:9090" or
// ":0" for an ephemeral port) exposing reg via NewMux. It returns once
// the listener is bound; serving continues in a background goroutine
// until Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{srv: &http.Server{Handler: NewMux(reg)}, lis: lis}
	go func() { _ = s.srv.Serve(lis) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close shuts the server down immediately.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
