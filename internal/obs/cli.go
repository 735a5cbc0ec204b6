package obs

import (
	"flag"
	"fmt"
	"os"
)

// Flags is the observability flag set shared by the CLIs, so csfarm,
// cssim and cstrace expose identical -trace / -trace-format /
// -metrics-addr behaviour and cannot drift.
type Flags struct {
	Trace       string
	TraceFormat string
	MetricsAddr string
}

// Register installs the flags on fs (flag.CommandLine when fs is nil).
func (f *Flags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&f.Trace, "trace", "", "write a structured event trace to this file")
	fs.StringVar(&f.TraceFormat, "trace-format", "jsonl", "trace format: jsonl, or chrome (load in chrome://tracing / Perfetto)")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve /metrics and /debug/pprof on this address while running")
}

// Session holds the live observability resources a CLI opened from its
// flags. All methods are nil-safe; the zero Session is fully disabled.
type Session struct {
	// Sink is the sink the caller should emit to: the trace file sink,
	// or nil when -trace was not given.
	Sink Sink
	// Server is the metrics server, nil when -metrics-addr was not
	// given.
	Server *Server

	file   *os.File
	closer interface{ Close() error }
	closed bool
}

// Setup opens the trace file and metrics server requested by the
// flags. reg may be nil when the caller keeps no metrics. The trace
// format is checked first, whether or not a trace file is requested,
// so a bad one never truncates an existing file; an empty format is
// jsonl, which keeps the zero Flags valid. On error, anything already
// opened is closed.
func (f *Flags) Setup(reg *Registry) (*Session, error) {
	chrome := f.TraceFormat == "chrome"
	if !chrome && f.TraceFormat != "jsonl" && f.TraceFormat != "" {
		return nil, fmt.Errorf("obs: unknown trace format %q (want jsonl or chrome)", f.TraceFormat)
	}
	s := &Session{}
	if f.Trace != "" {
		file, err := os.Create(f.Trace)
		if err != nil {
			return nil, fmt.Errorf("obs: create trace file: %w", err)
		}
		s.file = file
		if chrome {
			sink := NewChromeSink(file)
			s.Sink, s.closer = sink, sink
		} else {
			sink := NewJSONLSink(file)
			s.Sink, s.closer = sink, sink
		}
	}
	if f.MetricsAddr != "" {
		srv, err := Serve(f.MetricsAddr, reg)
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		s.Server = srv
	}
	return s, nil
}

// Close flushes and closes the trace file and stops the metrics
// server. It is idempotent, so callers can Close
// explicitly to check the flush error and still keep a defer for
// early-exit paths.
func (s *Session) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.closer != nil {
		if err := s.closer.Close(); err != nil {
			first = err
		}
	}
	if s.file != nil {
		if err := s.file.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.Server != nil {
		if err := s.Server.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
