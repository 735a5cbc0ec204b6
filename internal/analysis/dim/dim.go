// Package dim is the dimension engine under the cslint suite's
// unitflow and probrange analyzers. Every quantity in the paper's
// model has an implicit physical type — period lengths and overheads
// are time, t ⊖ c is work, life functions p(t) are probabilities —
// but the Go code stores them all as float64. This package recovers
// the lost types as an abstract domain: a flat lattice of dimensions
// (Dim), seeded from //cs:unit annotations and a small table of known
// APIs, propagated through each function body by forward dataflow
// over its control-flow graph (internal/analysis/cfg +
// internal/analysis/dataflow), and carried across package boundaries
// as session facts exactly like the flow engine's summaries.
//
// # The //cs:unit grammar
//
// Declarations are comments beginning with "cs:unit". Two forms
// exist. The single-token form names one dimension and attaches to a
// declaration — a struct field, an interface method's doc, a var
// declaration, or a short variable declaration via a trailing comment
// on the same line:
//
//	type Schedule struct {
//		Period float64 //cs:unit time
//	}
//	var horizon float64 //cs:unit time
//	budget := remaining() //cs:unit work
//
// The named form attaches to a function declaration's doc comment and
// assigns dimensions to parameters (by name, with "recv" accepted for
// the receiver) and to results ("return=dim" for a single result,
// "return=dim,dim" positionally for several):
//
//	//cs:unit t=time c=time return=work
//	func PositiveSub(t, c float64) float64
//
// Dimension names are: time, work, probability, rate, count,
// dimensionless. A dimension declared on a slice, array or map names
// the dimension of its elements (the collection itself has none).
//
// # Soundness caveats
//
// The engine is a linter's domain, not a verifier's: dimensions
// attach to go/types variable objects and struct fields, so values
// threaded through channels, interfaces or reflection lose their
// dimension (they re-enter as Unknown, which never reports). Untyped
// constants are Unknown: `t + 1` is legal around arbitrary dimensions
// because the literal adapts. Mixed arithmetic whose result dimension
// the Mul/Div tables cannot name yields Top, which also never
// reports — both ends of the lattice are silent, so every unitflow
// diagnostic rests on two concretely known dimensions.
package dim

import "fmt"

// FactsNamespace keys the dimension engine's Facts in an
// analysis.Session.
const FactsNamespace = "unitdim"

// A Dim is one point of the dimension lattice. Unknown is bottom
// (nothing claimed yet, never reported); Top is the result of
// arithmetic the tables cannot name (also never reported); the middle
// layer holds the paper's concrete dimensions.
type Dim uint8

const (
	Unknown Dim = iota
	Time
	Work
	Probability
	Rate
	Count
	Dimensionless
	Top
)

var dimNames = [...]string{
	Unknown:       "unknown",
	Time:          "time",
	Work:          "work",
	Probability:   "probability",
	Rate:          "rate",
	Count:         "count",
	Dimensionless: "dimensionless",
	Top:           "mixed",
}

func (d Dim) String() string {
	if int(d) < len(dimNames) {
		return dimNames[d]
	}
	return fmt.Sprintf("dim(%d)", uint8(d))
}

// Concrete reports whether d is a named dimension — neither end of
// the lattice. Analyzers only diagnose relations between two concrete
// dimensions.
func (d Dim) Concrete() bool { return d != Unknown && d != Top }

// ParseDim resolves an annotation token to its dimension.
func ParseDim(s string) (Dim, bool) {
	switch s {
	case "time":
		return Time, true
	case "work":
		return Work, true
	case "probability":
		return Probability, true
	case "rate":
		return Rate, true
	case "count":
		return Count, true
	case "dimensionless":
		return Dimensionless, true
	}
	return Unknown, false
}

// Join is the lattice join: Unknown is the identity, agreeing
// dimensions keep their value, disagreeing concrete dimensions go to
// Top. It doubles as the abstract addition/subtraction result —
// unitflow reports the disagreement before the result decays to Top.
func Join(a, b Dim) Dim {
	switch {
	case a == Unknown:
		return b
	case b == Unknown:
		return a
	case a == b:
		return a
	default:
		return Top
	}
}

// Mul is the abstract product. Count and Dimensionless are scalar
// multipliers; the named products are the paper's: p·w is expected
// work, p·t expected time, rate·t a probability mass. Anything else
// is Top.
func Mul(a, b Dim) Dim {
	switch {
	case a == Unknown || b == Unknown:
		return Unknown
	case a == Top || b == Top:
		return Top
	case a == Dimensionless || a == Count:
		return b
	case b == Dimensionless || b == Count:
		return a
	case a == Probability && b == Probability:
		return Probability
	case (a == Probability && b == Work) || (a == Work && b == Probability):
		return Work
	case (a == Probability && b == Time) || (a == Time && b == Probability):
		return Time
	case (a == Rate && b == Time) || (a == Time && b == Rate):
		return Probability
	default:
		return Top
	}
}

// Div is the abstract quotient: like-over-like cancels, scalar
// divisors pass through, probability-per-time is a rate and dividing
// a probability by a rate recovers a time. Anything else is Top.
func Div(a, b Dim) Dim {
	switch {
	case a == Unknown || b == Unknown:
		return Unknown
	case a == Top || b == Top:
		return Top
	case a == b:
		return Dimensionless
	case b == Dimensionless || b == Count:
		return a
	case a == Probability && b == Time:
		return Rate
	case a == Probability && b == Rate:
		return Time
	case a == Time && b == Rate:
		return Top
	default:
		return Top
	}
}

// FuncDims records the declared (or inferred) dimensions of one
// function's parameters and results. Params is indexed receiver-first
// like flow.FuncSummary; holes are Unknown.
type FuncDims struct {
	Params  []Dim
	Results []Dim
}

// Param returns the dimension of normalized argument index i,
// collapsing variadic overflow onto the final parameter.
func (f FuncDims) Param(i int) Dim {
	if len(f.Params) == 0 {
		return Unknown
	}
	if i >= len(f.Params) {
		i = len(f.Params) - 1
	}
	if i < 0 {
		return Unknown
	}
	return f.Params[i]
}

// Result returns the dimension of result i, Unknown when undeclared.
func (f FuncDims) Result(i int) Dim {
	if i < 0 || i >= len(f.Results) {
		return Unknown
	}
	return f.Results[i]
}

func (f FuncDims) empty() bool {
	for _, d := range f.Params {
		if d != Unknown {
			return false
		}
	}
	for _, d := range f.Results {
		if d != Unknown {
			return false
		}
	}
	return true
}

func (f FuncDims) equal(g FuncDims) bool {
	if len(f.Params) != len(g.Params) || len(f.Results) != len(g.Results) {
		return false
	}
	for i := range f.Params {
		if f.Params[i] != g.Params[i] {
			return false
		}
	}
	for i := range f.Results {
		if f.Results[i] != g.Results[i] {
			return false
		}
	}
	return true
}

// Facts is one package's exported dimension knowledge. Funcs is keyed
// by types.Func.FullName (stable across loaders, like flow's
// summaries). Vars is keyed by "Type.Field" for struct fields and by
// the bare name for package-level variables.
type Facts struct {
	Funcs map[string]FuncDims
	Vars  map[string]Dim
}

// builtinFuncs seeds dimensions for APIs the issue names explicitly,
// so the engine knows them even in trees whose sources carry no
// annotations yet. Keys are types.Func full names; Params are
// receiver-first.
var builtinFuncs = map[string]FuncDims{
	"repro/internal/sched.PositiveSub": {
		Params:  []Dim{Time, Time},
		Results: []Dim{Work},
	},
	"(repro/internal/lifefn.Life).P": {
		Params:  []Dim{Unknown, Time},
		Results: []Dim{Probability},
	},
	"(repro/internal/lifefn.Life).Deriv": {
		Params:  []Dim{Unknown, Time},
		Results: []Dim{Rate},
	},
	"(repro/internal/lifefn.Life).Horizon": {
		Params:  []Dim{Unknown},
		Results: []Dim{Time},
	},
}
