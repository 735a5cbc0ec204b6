package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/driver"
	"repro/internal/analysis/suite"
)

// runLint invokes the driver in-process from dir, returning exit code,
// stdout and stderr.
func runLint(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	if dir != "" {
		old, err := os.Getwd()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chdir(dir); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := os.Chdir(old); err != nil {
				t.Fatal(err)
			}
		}()
	}
	var stdout, stderr bytes.Buffer
	code := driver.Main(append([]string{"cslint"}, args...), &stdout, &stderr, suite.All)
	return code, stdout.String(), stderr.String()
}

func TestStandaloneDirty(t *testing.T) {
	code, out, _ := runLint(t, filepath.Join("testdata", "dirty"), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"[floatcmp]", "[printlint]"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %s finding:\n%s", want, out)
		}
	}
}

func TestStandaloneClean(t *testing.T) {
	code, out, errout := runLint(t, filepath.Join("testdata", "clean"), "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out, errout)
	}
	if out != "" {
		t.Errorf("clean package produced output: %s", out)
	}
}

// TestStandaloneCrossPackageFacts checks that the driver carries facts
// dependency-first: the raw subtraction lives in facts/work and
// surfaces at the call in facts/nowsim (flow summaries), and the
// allocation lives in hotfacts/dep and surfaces at the hot root's call
// in hotfacts/hot (hotalloc allocation sites over the call graph).
func TestStandaloneCrossPackageFacts(t *testing.T) {
	for _, tc := range []struct {
		fixture string
		want    []string
	}{
		{"facts", []string{"nowsim/n.go:", "hides a raw work subtraction", "[nonnegwork]"}},
		{"hotfacts", []string{"hot/hot.go:", "reaches dep.Fill", "allocates at dep.go:", "[hotalloc]"}},
	} {
		code, out, _ := runLint(t, filepath.Join("testdata", tc.fixture), "./...")
		if code != 1 {
			t.Fatalf("%s: exit = %d, want 1\n%s", tc.fixture, code, out)
		}
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output missing %q:\n%s", tc.fixture, want, out)
			}
		}
	}
}

// TestStandaloneSubdirPaths: diagnostic paths are anchored at the
// enclosing go.mod, not the invocation directory, so a run from a
// subdirectory names files the way a run from the module root does.
func TestStandaloneSubdirPaths(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module tmpmod\n\ngo 1.22\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "sub"), 0o777); err != nil {
		t.Fatal(err)
	}
	src := "package sub\n\n// Same is a deliberate floatcmp finding.\nfunc Same(a, b float64) bool { return a == b }\n"
	if err := os.WriteFile(filepath.Join(root, "sub", "sub.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join("sub", "sub.go") + ":4:"
	for _, dir := range []string{root, filepath.Join(root, "sub")} {
		code, out, errout := runLint(t, dir, "./...")
		if code != 1 {
			t.Fatalf("run from %s: exit = %d, want 1\nstdout: %s\nstderr: %s", dir, code, out, errout)
		}
		if !strings.HasPrefix(out, want) {
			t.Errorf("run from %s: output does not start with the module-root-relative %q:\n%s", dir, want, out)
		}
	}
}

// sarifLog mirrors the SARIF 2.1.0 subset cslint emits. The test
// decodes with DisallowUnknownFields both ways: every field here must
// be in the output, and the output must contain nothing beyond the
// schema subset — a network-free schema validation.
type sarifLog struct {
	Schema  string `json:"$schema"`
	Version string `json:"version"`
	Runs    []struct {
		Tool struct {
			Driver struct {
				Name  string `json:"name"`
				Rules []struct {
					ID               string `json:"id"`
					ShortDescription struct {
						Text string `json:"text"`
					} `json:"shortDescription"`
				} `json:"rules"`
			} `json:"driver"`
		} `json:"tool"`
		Results []struct {
			RuleID    string `json:"ruleId"`
			RuleIndex int    `json:"ruleIndex"`
			Level     string `json:"level"`
			Message   struct {
				Text string `json:"text"`
			} `json:"message"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI       string `json:"uri"`
						URIBaseID string `json:"uriBaseId"`
					} `json:"artifactLocation"`
					Region struct {
						StartLine   int `json:"startLine"`
						StartColumn int `json:"startColumn"`
						EndLine     int `json:"endLine"`
						EndColumn   int `json:"endColumn"`
					} `json:"region"`
				} `json:"physicalLocation"`
			} `json:"locations"`
		} `json:"results"`
	} `json:"runs"`
}

func TestSARIFOutput(t *testing.T) {
	code, out, _ := runLint(t, filepath.Join("testdata", "dirty"), "-sarif", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	var log sarifLog
	dec := json.NewDecoder(strings.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&log); err != nil {
		t.Fatalf("-sarif output does not match the SARIF 2.1.0 subset: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" {
		t.Errorf("sarif version = %q, want 2.1.0", log.Version)
	}
	if !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("sarif $schema = %q, want a 2.1.0 schema URI", log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("sarif runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "cslint" {
		t.Errorf("tool.driver.name = %q, want cslint", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(suite.All) {
		t.Errorf("rules = %d, want %d (one per analyzer)", len(run.Tool.Driver.Rules), len(suite.All))
	}
	if len(run.Results) == 0 {
		t.Fatal("dirty fixture produced no sarif results")
	}
	seen := make(map[string]bool)
	withEnd := 0
	for _, r := range run.Results {
		seen[r.RuleID] = true
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Errorf("result ruleIndex %d out of range", r.RuleIndex)
			continue
		}
		if got := run.Tool.Driver.Rules[r.RuleIndex].ID; got != r.RuleID {
			t.Errorf("result ruleId %q does not match rules[%d].id %q", r.RuleID, r.RuleIndex, got)
		}
		if r.Level != "warning" || r.Message.Text == "" {
			t.Errorf("result missing level/message: %+v", r)
		}
		if len(r.Locations) != 1 {
			t.Errorf("result has %d locations, want 1", len(r.Locations))
			continue
		}
		pl := r.Locations[0].PhysicalLocation
		if pl.ArtifactLocation.URIBaseID != "SRCROOT" {
			t.Errorf("uriBaseId = %q, want SRCROOT", pl.ArtifactLocation.URIBaseID)
		}
		if filepath.IsAbs(pl.ArtifactLocation.URI) || strings.Contains(pl.ArtifactLocation.URI, `\`) {
			t.Errorf("artifact uri %q is not a relative slash path", pl.ArtifactLocation.URI)
		}
		reg := pl.Region
		if reg.StartLine <= 0 || reg.StartColumn <= 0 {
			t.Errorf("region start not positive: %+v", reg)
		}
		if reg.EndLine == 0 {
			continue
		}
		withEnd++
		if reg.EndLine < reg.StartLine || (reg.EndLine == reg.StartLine && reg.EndColumn < reg.StartColumn) {
			t.Errorf("region end precedes start: %+v", reg)
		}
	}
	if !seen["floatcmp"] || !seen["printlint"] {
		t.Errorf("sarif results missing expected analyzers: %v", seen)
	}
	// floatcmp reports the whole comparison: range diagnostics must
	// reach the log as start/end regions.
	if withEnd == 0 {
		t.Error("no result carried an end region; range reporting is not wired to -sarif")
	}

	// A clean tree still emits a complete, valid log with empty results.
	code, out, _ = runLint(t, filepath.Join("testdata", "clean"), "-sarif", "./...")
	if code != 0 {
		t.Fatalf("clean -sarif exit = %d, want 0\n%s", code, out)
	}
	log = sarifLog{}
	dec = json.NewDecoder(strings.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&log); err != nil {
		t.Fatalf("clean -sarif output invalid: %v\n%s", err, out)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) != 0 {
		t.Errorf("clean tree sarif should have one run with zero results:\n%s", out)
	}
	if len(log.Runs[0].Tool.Driver.Rules) != len(suite.All) {
		t.Errorf("clean tree sarif still documents %d rules, want %d", len(log.Runs[0].Tool.Driver.Rules), len(suite.All))
	}
}

func TestUsageError(t *testing.T) {
	code, _, _ := runLint(t, "", "-no-such-flag")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 for a bad flag", code)
	}
	// -sarif is the one option.
	_, _, errout := runLint(t, "", "-h")
	var flags []string
	for _, line := range strings.Split(errout, "\n") {
		if strings.HasPrefix(line, "  -") {
			flags = append(flags, strings.Fields(line)[0])
		}
	}
	if len(flags) != 1 || flags[0] != "-sarif" {
		t.Errorf("usage lists flags %v, want [-sarif]:\n%s", flags, errout)
	}
}
