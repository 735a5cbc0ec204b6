package hotalloc

import (
	"encoding/json"
	"fmt"
	"sort"
)

// FactsNamespace keys hotalloc's per-function allocation summaries in
// an analysis.Session.
const FactsNamespace = "hotalloc"

// An AllocSite is one heap-allocating construct in a function body, as
// serialized into facts. Pos is a short "file.go:line" anchor (base
// filename, so the string is stable across checkouts); Desc is the
// human fragment diagnostics embed.
type AllocSite struct {
	Kind string `json:"kind"`
	Pos  string `json:"pos"`
	Desc string `json:"desc"`
}

// Sites maps a function's full name to its unsuppressed allocation
// sites — the per-package facts payload. Sites carry //lint:allow
// filtering already applied in the defining package, so an importer
// never re-reports an allocation its owner justified.
type Sites map[string][]AllocSite

// Encode packs sites deterministically (sorted function names; site
// order is source order, already deterministic).
func (s Sites) Encode() ([]byte, error) {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	type entry struct {
		Name  string      `json:"name"`
		Sites []AllocSite `json:"sites"`
	}
	entries := make([]entry, 0, len(names))
	for _, name := range names {
		entries = append(entries, entry{name, s[name]})
	}
	return json.Marshal(entries)
}

// DecodeSites unpacks a facts blob produced by Encode. A nil or empty
// blob yields an empty map.
func DecodeSites(data []byte) (Sites, error) {
	out := make(Sites)
	if len(data) == 0 {
		return out, nil
	}
	var entries []struct {
		Name  string      `json:"name"`
		Sites []AllocSite `json:"sites"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("hotalloc: decoding sites: %v", err)
	}
	for _, e := range entries {
		out[e.Name] = e.Sites
	}
	return out, nil
}
