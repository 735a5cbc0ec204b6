package callgraph

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Nodes maps a function's full name to its serialized call-graph node,
// the per-package facts payload.
type Nodes map[string]Node

// Encode packs nodes into the facts blob stored in an
// analysis.Session. The encoding is deterministic (sorted keys) so
// identical analyses produce identical facts bytes.
func (n Nodes) Encode() ([]byte, error) {
	names := make([]string, 0, len(n))
	for name := range n {
		names = append(names, name)
	}
	sort.Strings(names)
	type entry struct {
		Name string `json:"name"`
		Node Node   `json:"node"`
	}
	entries := make([]entry, 0, len(names))
	for _, name := range names {
		entries = append(entries, entry{name, n[name]})
	}
	return json.Marshal(entries)
}

// DecodeNodes unpacks a facts blob produced by Encode. A nil or empty
// blob yields an empty map.
func DecodeNodes(data []byte) (Nodes, error) {
	out := make(Nodes)
	if len(data) == 0 {
		return out, nil
	}
	var entries []struct {
		Name string `json:"name"`
		Node Node   `json:"node"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("callgraph: decoding nodes: %v", err)
	}
	for _, e := range entries {
		out[e.Name] = e.Node
	}
	return out, nil
}
