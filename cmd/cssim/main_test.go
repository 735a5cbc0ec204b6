package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	small := []string{"-episodes", "200", "-L", "100"}
	cases := []struct {
		name string
		argv []string
		want int
	}{
		{"ok", small, 0},
		{"fixed policy", append(append([]string{}, small...), "-policy", "fixed", "-chunk", "10"), 0},
		{"bad flag", []string{"-no-such-flag"}, 2},
		{"help", []string{"-h"}, 2},
		{"bad life", []string{"-life", "cauchy"}, 2},
		{"bad lifespan", []string{"-life", "uniform", "-L", "-5"}, 2},
		{"bad policy", append(append([]string{}, small...), "-policy", "nope"), 2},
		{"bad chunk", append(append([]string{}, small...), "-policy", "fixed", "-chunk", "-1"), 2},
		{"zero episodes", []string{"-episodes", "0", "-L", "100"}, 2},
		{"negative episodes", []string{"-episodes", "-5", "-L", "100"}, 2},
		{"one episode", []string{"-episodes", "1", "-L", "100"}, 2},
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

func TestRunReportsWork(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-episodes", "500", "-L", "100"}, &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d\nstderr: %s", got, stderr.String())
	}
	for _, want := range []string{"scenario", "work", "analytic E"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report missing %q:\n%s", want, stdout.String())
		}
	}
}
