package analysis

// A Session carries cross-package analysis state — facts, in the
// golang.org/x/tools/go/analysis sense — through a multi-package run.
// Interprocedural analyses (the flow engine under
// internal/analysis/flow) summarize each package's functions once and
// export the summaries under a namespace as the Go value they built;
// when a later package in the same session calls into an
// already-summarized package, the propagator consults the session
// instead of re-deriving (or worse, guessing) the callee's behavior.
// Each namespace belongs to one engine, which alone knows the value's
// type and asserts it on read.
//
// The cslint driver and the analysistest harness analyze packages
// dependency-first (load.Sort) with one shared session, so facts flow
// from a package to its importers within the process.
//
// A nil *Session is valid everywhere and simply has no facts, degrading
// interprocedural analyses to conservative intra-package results.
type Session struct {
	facts map[factKey]any
}

type factKey struct{ path, ns string }

// NewSession returns an empty session.
func NewSession() *Session {
	return &Session{facts: make(map[factKey]any)}
}

// SetFacts records v as package path's facts under namespace ns,
// replacing any previous value. A nil session ignores the write.
func (s *Session) SetFacts(path, ns string, v any) {
	if s == nil {
		return
	}
	s.facts[factKey{path, ns}] = v
}

// Facts returns package path's facts under namespace ns, or nil when
// the session is nil or holds none.
func (s *Session) Facts(path, ns string) any {
	if s == nil {
		return nil
	}
	return s.facts[factKey{path, ns}]
}
