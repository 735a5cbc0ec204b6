// SARIF 2.1.0 output for the cslint driver. The structs mirror the
// slice of the schema cslint emits — static-analysis interchange for
// code-scanning UIs — and are kept exported-field-complete so the
// schema test can strict-decode the output without a network fetch.
package driver

import (
	"encoding/json"
	"io"

	"repro/internal/analysis"
)

const (
	sarifSchema  = "https://json.schemastore.org/sarif-2.1.0.json"
	sarifVersion = "2.1.0"
	// sarifSrcRoot is the conventional uriBaseId for repo-relative
	// artifact URIs; consumers bind it to the checkout root.
	sarifSrcRoot = "SRCROOT"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
	EndLine     int `json:"endLine,omitempty"`
	EndColumn   int `json:"endColumn,omitempty"`
}

// writeSARIF renders findings as one SARIF run. The rules table lists
// every active analyzer (found or not), so a clean log still documents
// what was checked; results reference rules by index.
func writeSARIF(w io.Writer, analyzers []*analysis.Analyzer, findings []analysis.Finding) error {
	rules := make([]sarifRule, 0, len(analyzers))
	ruleIndex := make(map[string]int, len(analyzers))
	for i, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: firstLine(a.Doc)}})
		ruleIndex[a.Name] = i
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		idx, ok := ruleIndex[f.Analyzer]
		if !ok {
			// A finding from an analyzer outside the active set (cannot
			// happen via Session.Run, but keep the log well-formed).
			idx = len(rules)
			ruleIndex[f.Analyzer] = idx
			rules = append(rules, sarifRule{ID: f.Analyzer, ShortDescription: sarifMessage{Text: f.Analyzer}})
		}
		region := sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column}
		if f.End.Line > 0 {
			region.EndLine = f.End.Line
			region.EndColumn = f.End.Column
		}
		results = append(results, sarifResult{
			RuleID:    f.Analyzer,
			RuleIndex: idx,
			Level:     "warning",
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       toSlash(f.Pos.Filename),
						URIBaseID: sarifSrcRoot,
					},
					Region: region,
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  sarifSchema,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "cslint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// toSlash normalizes path separators for artifact URIs.
func toSlash(p string) string {
	out := []byte(p)
	for i := range out {
		if out[i] == '\\' {
			out[i] = '/'
		}
	}
	return string(out)
}
