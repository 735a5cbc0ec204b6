package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	small := []string{"-sessions", "200", "-L", "100"}
	cases := []struct {
		name string
		argv []string
		want int
	}{
		{"ok", small, 0},
		{"censored", append(append([]string{}, small...), "-censor", "40"), 0},
		{"bad flag", []string{"-no-such-flag"}, 2},
		{"help", []string{"-h"}, 2},
		{"bad truth", []string{"-truth", "cauchy"}, 2},
		{"bad lifespan", []string{"-truth", "uniform", "-L", "-5"}, 2},
		// Censoring every observation below any event leaves nothing to
		// fit: a runtime failure, not a usage error.
		{"unfittable", append(append([]string{}, small...), "-censor", "1e-12"), 1},
		{"bad trace format", append(append([]string{}, small...), "-trace", filepath.Join(t.TempDir(), "x"), "-trace-format", "xml"), 2},
		{"bad trace format without -trace", append(append([]string{}, small...), "-trace-format", "xml"), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.argv, &stdout, &stderr); got != tc.want {
				t.Errorf("run(%v) = %d, want %d\nstderr: %s", tc.argv, got, tc.want, stderr.String())
			}
		})
	}
}

func TestRunReportsRegret(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-sessions", "400", "-L", "100"}, &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d\nstderr: %s", got, stderr.String())
	}
	for _, want := range []string{"KS distance", "plan on truth", "regret"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunChromeTrace drives the schedule-timeline path end to end: the
// emitted plan comparison must be a valid trace_event JSON file.
func TestRunChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.json")
	var stdout, stderr bytes.Buffer
	argv := []string{"-sessions", "200", "-L", "100", "-trace", path, "-trace-format", "chrome"}
	if got := run(argv, &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d\nstderr: %s", got, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}
}
