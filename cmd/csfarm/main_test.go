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
	small := []string{"-workers", "2", "-tasks", "40", "-policies", "fixed:25"}
	cases := []struct {
		name string
		argv []string
		want int
	}{
		{"ok", small, 0},
		{"bad flag", []string{"-no-such-flag"}, 2},
		{"help", []string{"-h"}, 2},
		{"bad dist", []string{"-dist", "cauchy"}, 2},
		{"bad policy", append(append([]string{}, small[:4]...), "-policies", "nope"), 1},
		{"bad trace format", append(append([]string{}, small...), "-trace", filepath.Join(t.TempDir(), "x"), "-trace-format", "xml"), 2},
		{"bad trace format without -trace", append(append([]string{}, small...), "-trace-format", "xml"), 2},
		{"not drained", append(append([]string{}, small...), "-maxtime", "5"), 1},
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

func TestRunUsageOnFlagError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	run([]string{"-no-such-flag"}, &stdout, &stderr)
	if !strings.Contains(stderr.String(), "Usage") && !strings.Contains(stderr.String(), "-policies") {
		t.Errorf("flag error did not print usage:\n%s", stderr.String())
	}
}

// TestRunChromeTrace drives the full CLI path: a farm run with -trace
// -trace-format chrome must leave behind a valid trace_event JSON file.
func TestRunChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	argv := []string{"-workers", "2", "-tasks", "40", "-policies", "fixed:25",
		"-trace", path, "-trace-format", "chrome"}
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
