package flow

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
)

// FactsNamespace keys the flow engine's packed summaries in an
// analysis.Session.
const FactsNamespace = "flow"

// A RawSub records that a function's return value is the raw (sign
// preserving) difference params[X] - params[Y], directly or through a
// chain of wrappers. The nonnegwork analyzer uses it to see through
// helpers that hide a `t - c` from the call site.
type RawSub struct {
	X, Y int
}

// A FuncSummary is one function's interprocedural summary: the raw
// subtractions of its parameters it returns.
type FuncSummary struct {
	RawSubs []RawSub `json:"rawsubs,omitempty"`
}

func (s FuncSummary) equal(t FuncSummary) bool { return slices.Equal(s.RawSubs, t.RawSubs) }

// Summaries maps a function's full name (types.Func.FullName: package
// qualified, "(*pkg.T).M" for methods) to its summary. Full names are
// stable across packages, so an importer finds a dependency's summary
// without sharing its type-checker objects.
type Summaries map[string]FuncSummary

// Encode packs summaries into the facts blob stored in an
// analysis.Session. The encoding is deterministic (sorted keys) so
// identical analyses produce identical facts bytes.
func (s Summaries) Encode() ([]byte, error) {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	type entry struct {
		Name string      `json:"name"`
		Sum  FuncSummary `json:"sum"`
	}
	entries := make([]entry, 0, len(names))
	for _, name := range names {
		entries = append(entries, entry{name, s[name]})
	}
	return json.Marshal(entries)
}

// DecodeSummaries unpacks a facts blob produced by Encode. A nil or
// empty blob yields an empty map.
func DecodeSummaries(data []byte) (Summaries, error) {
	out := make(Summaries)
	if len(data) == 0 {
		return out, nil
	}
	var entries []struct {
		Name string      `json:"name"`
		Sum  FuncSummary `json:"sum"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("flow: decoding summaries: %v", err)
	}
	for _, e := range entries {
		out[e.Name] = e.Sum
	}
	return out, nil
}
