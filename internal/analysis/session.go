package analysis

// A Session carries cross-package analysis state — facts, in the
// golang.org/x/tools/go/analysis sense — through a multi-package run.
// Interprocedural analyses (the flow engine under
// internal/analysis/flow) summarize each package's functions once and
// export the summaries as an opaque blob keyed by a namespace; when a
// later package in the same session calls into an already-summarized
// package, the propagator consults the session instead of re-deriving
// (or worse, guessing) the callee's behavior.
//
// The cslint driver and the analysistest harness analyze packages
// dependency-first (load.Sort) with one shared session, so facts flow
// from a package to its importers within the process.
//
// A nil *Session is valid everywhere and simply has no facts, degrading
// interprocedural analyses to conservative intra-package results.
type Session struct {
	facts map[string]map[string][]byte // package path -> namespace -> blob
}

// NewSession returns an empty session.
func NewSession() *Session {
	return &Session{facts: make(map[string]map[string][]byte)}
}

// SetFacts records the blob as package path's facts under namespace ns,
// replacing any previous blob. A nil session ignores the write.
func (s *Session) SetFacts(path, ns string, data []byte) {
	if s == nil {
		return
	}
	m := s.facts[path]
	if m == nil {
		m = make(map[string][]byte)
		s.facts[path] = m
	}
	m[ns] = data
}

// Facts returns package path's blob under namespace ns, or nil when the
// session is nil or holds none.
func (s *Session) Facts(path, ns string) []byte {
	if s == nil {
		return nil
	}
	return s.facts[path][ns]
}
