package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want int
	}{
		{"ok", []string{"-life", "uniform", "-L", "100", "-c", "1"}, 0},
		{"geomdec", []string{"-life", "geomdec", "-halflife", "32"}, 0},
		{"discrete", []string{"-life", "uniform", "-L", "50", "-discrete"}, 0},
		{"worst case", []string{"-life", "uniform", "-L", "50", "-q", "2"}, 0},
		{"bad flag", []string{"-no-such-flag"}, 2},
		{"help", []string{"-h"}, 2},
		{"bad life", []string{"-life", "cauchy"}, 2},
		{"bad halflife", []string{"-life", "geomdec", "-halflife", "-1"}, 2},
		{"bad lifespan", []string{"-life", "uniform", "-L", "-5"}, 2},
		{"poly", []string{"-life", "poly", "-d", "3", "-L", "100"}, 0},
		{"non-integer poly exponent", []string{"-life", "poly", "-d", "2.5", "-L", "100"}, 2},
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

func TestRunReportsPlan(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-life", "uniform", "-L", "100"}, &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d\nstderr: %s", got, stderr.String())
	}
	for _, want := range []string{"t0 bracket", "expected work", "[BCLR97] opt"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report missing %q:\n%s", want, stdout.String())
		}
	}
}
