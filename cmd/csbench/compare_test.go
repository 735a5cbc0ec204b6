package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// row is one BenchmarkPerf result: name, ns/op, allocs/op.
type row struct {
	name   string
	ns     float64
	allocs int
}

// benchRun renders one `go test -bench -benchmem` run of the table as
// the test binary prints it on a 2-CPU host.
func benchRun(rows ...row) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro\ncpu: Intel(R) Xeon(R) Processor\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "BenchmarkPerf/%-32s\t  100000\t%12.1f ns/op\t%8d B/op\t%8d allocs/op\n",
			r.name+"-2", r.ns, 8*r.allocs, r.allocs)
	}
	b.WriteString("PASS\n")
	return b.String()
}

// table is a small stand-in for the real table, including the two rows
// the nil-obs check reads.
func table() []row {
	return []row{
		{"episode/uninstrumented", 380, 0},
		{"episode/obs-disabled", 381, 0},
		{"plan/uniform", 918328, 890},
		{"mc/20k/uniform", 5062905, 5},
	}
}

const record = `{"rows": [
  {"name": "episode/uninstrumented", "allocs_per_op": 0},
  {"name": "episode/obs-disabled", "allocs_per_op": 0},
  {"name": "plan/uniform", "allocs_per_op": 890},
  {"name": "mc/20k/uniform", "allocs_per_op": 5}
]}`

// with returns a copy of rows with the named row's values replaced.
func with(rows []row, name string, ns float64, allocs int) []row {
	out := append([]row(nil), rows...)
	for i := range out {
		if out[i].name == name {
			out[i].ns, out[i].allocs = ns, allocs
		}
	}
	return out
}

func without(rows []row, name string) []row {
	var out []row
	for _, r := range rows {
		if r.name != name {
			out = append(out, r)
		}
	}
	return out
}

// gate writes the record and both outputs to files and runs -compare.
func gate(t *testing.T, rec, base, head string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, 3)
	for i, body := range []string{rec, base, head} {
		paths[i] = filepath.Join(dir, fmt.Sprintf("f%d", i))
		if err := os.WriteFile(paths[i], []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	code := runCompare(paths[0], paths[1], paths[2], &stdout, &stderr)
	return code, stdout.String() + stderr.String()
}

// lineFor returns the comparison line that names row.
func lineFor(out, name string) string {
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) > 1 && f[1] == name {
			return l
		}
	}
	return ""
}

func TestComparePerfIdenticalPasses(t *testing.T) {
	runs := benchRun(table()...) + benchRun(table()...)
	code, out := gate(t, record, runs, runs)
	if code != 0 || !strings.Contains(out, "PASS") {
		t.Fatalf("identical pair: exit %d\n%s", code, out)
	}
	if l := lineFor(out, "plan/uniform"); !strings.Contains(l, "x1.00") {
		t.Errorf("plan/uniform line %q, want ratio x1.00", l)
	}
}

func TestComparePerfNsBreach(t *testing.T) {
	base := benchRun(table()...)
	slow := benchRun(with(table(), "plan/uniform", 2*918328, 890)...)
	code, out := gate(t, record, base, slow)
	if code != 1 {
		t.Fatalf("2x ns/op: exit %d, want 1\n%s", code, out)
	}
	if l := lineFor(out, "plan/uniform"); !strings.HasPrefix(l, "BREACH") || !strings.Contains(l, "ns/op over base") {
		t.Errorf("plan/uniform line %q, want an ns/op breach", l)
	}
	if l := lineFor(out, "mc/20k/uniform"); !strings.HasPrefix(l, "ok") {
		t.Errorf("unchanged row %q flagged", l)
	}
	// Each side keeps its min over runs: one slow run among fast ones
	// is noise, not a regression.
	code, out = gate(t, record, base, slow+base)
	if code != 0 {
		t.Fatalf("one slow run of two: exit %d, want 0\n%s", code, out)
	}
}

// The record is exact: one allocation over it breaches, with no
// slack; at or under it passes.
func TestComparePerfAllocBreachAndSlack(t *testing.T) {
	base := benchRun(table()...)
	for _, tc := range []struct {
		name   string
		allocs int
		want   int
	}{
		{"episode/uninstrumented", 1, 1},
		{"plan/uniform", 891, 1},
		{"plan/uniform", 890, 0},
		{"plan/uniform", 400, 0},
	} {
		ns := 380.0
		if tc.name == "plan/uniform" {
			ns = 918328
		}
		code, out := gate(t, record, base, benchRun(with(table(), tc.name, ns, tc.allocs)...))
		if code != tc.want {
			t.Errorf("%s at %d allocs/op: exit %d, want %d\n%s", tc.name, tc.allocs, code, tc.want, out)
		}
		if tc.want == 1 && !strings.Contains(lineFor(out, tc.name), "allocs/op over record") {
			t.Errorf("%s: breach not named\n%s", tc.name, out)
		}
	}
}

// A recorded row missing at head breaches; a row absent at the base or
// from the record is reported but not gated.
func TestComparePerfMissingIsBreachAddedIsNot(t *testing.T) {
	base := benchRun(table()...)
	code, out := gate(t, record, base, benchRun(without(table(), "mc/20k/uniform")...))
	if code != 1 || !strings.Contains(lineFor(out, "mc/20k/uniform"), "missing at head") {
		t.Fatalf("dropped row: exit %d, want 1 naming it\n%s", code, out)
	}

	added := append(table(), row{"plan/geomdec", 8218325, 795})
	code, out = gate(t, record, benchRun(without(table(), "plan/uniform")...), benchRun(added...))
	if code != 0 {
		t.Fatalf("rows new at head: exit %d, want 0\n%s", code, out)
	}
	if l := lineFor(out, "plan/uniform"); !strings.Contains(l, "not at base") {
		t.Errorf("row absent at base: %q, want it reported as not gated", l)
	}
	if l := lineFor(out, "plan/geomdec"); !strings.Contains(l, "not recorded") {
		t.Errorf("row absent from record: %q, want it reported as not gated", l)
	}
	// A base with no table at all, such as a commit from before the
	// table existed, gates allocs/op only.
	if code, out := gate(t, record, "PASS\n", benchRun(table()...)); code != 0 {
		t.Fatalf("empty base: exit %d, want 0\n%s", code, out)
	}
}

// episodeRuns renders one run per (uninstrumented, obs-disabled) ns/op
// pair, the two rows back to back as the gate's one-sample runs take
// them.
func episodeRuns(pairs ...[2]float64) string {
	var b strings.Builder
	for _, p := range pairs {
		b.WriteString(benchRun(with(with(table(), "episode/uninstrumented", p[0], 0), "episode/obs-disabled", p[1], 0)...))
	}
	return b.String()
}

func TestCompareNilObsBudget(t *testing.T) {
	base := benchRun(table()...)
	// Three of four runs pay 3%; in the fourth a burst hit the
	// uninstrumented sample, and the quietest obs-disabled sample sits
	// below the quietest uninstrumented one, which a min-vs-min check
	// would read as free.
	code, out := gate(t, record, base, episodeRuns([2]float64{400, 412}, [2]float64{300, 309}, [2]float64{500, 515}, [2]float64{330, 295}))
	if code != 1 || !strings.Contains(out, "BREACH   nil-obs overhead +3.00% (median of 4 paired samples") {
		t.Fatalf("3%% nil-obs overhead: exit %d, want 1\n%s", code, out)
	}
	// Each run pays 0.5% but one obs-disabled sample caught a burst: a
	// min-vs-min check would read +5%, the paired median does not.
	code, out = gate(t, record, base, episodeRuns([2]float64{400, 402}, [2]float64{300, 315}, [2]float64{500, 502.5}))
	if code != 0 || !strings.Contains(out, "ok       nil-obs overhead +0.50% (median of 3 paired samples") {
		t.Fatalf("0.5%% nil-obs overhead: exit %d, want 0\n%s", code, out)
	}
}

// Real `go test -bench` lines: the -GOMAXPROCS suffix goes,
// sub-benchmark slashes and dashes inside a row name stay, other
// benchmarks are skipped and each row keeps its min over runs, in the
// parse and in the printed comparison.
func TestRunCompareFileVsFile(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro
BenchmarkPerf/episode/obs-disabled-2         	  268308	       452.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkPerf/mc/20k/geomdec-2               	       5	  23079204 ns/op	     134 B/op	       5 allocs/op
BenchmarkTraceFit-2                          	     100	     10000 ns/op	     512 B/op	      12 allocs/op
PASS
goos: linux
goarch: amd64
pkg: repro
BenchmarkPerf/episode/obs-disabled-2         	  258757	       401.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkPerf/mc/20k/geomdec-2               	       5	  22651853 ns/op	     134 B/op	       6 allocs/op
BenchmarkPerf/hdr/observe                    	 4204201	        29.65 ns/op	       0 B/op	       0 allocs/op
PASS
`
	rows, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]benchRow{
		"episode/obs-disabled": {401.0, 0, []float64{452.5, 401.0}},
		"mc/20k/geomdec":       {22651853, 5, []float64{23079204, 22651853}},
		"hdr/observe":          {29.65, 0, []float64{29.65}},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
	for name, w := range want {
		if fmt.Sprint(rows[name]) != fmt.Sprint(w) {
			t.Errorf("%s = %+v, want %+v", name, rows[name], w)
		}
	}

	rec := `{"rows": [{"name": "mc/20k/geomdec", "allocs_per_op": 5}, {"name": "hdr/observe", "allocs_per_op": 0}]}`
	code, cmp := gate(t, rec, out, out)
	if code != 0 {
		t.Fatalf("file vs itself: exit %d\n%s", code, cmp)
	}
	if f := strings.Fields(lineFor(cmp, "mc/20k/geomdec")); len(f) < 6 || f[2] != "22651853.0" || f[3] != "22651853.0" || f[5] != "5" {
		t.Errorf("mc/20k/geomdec line %q, want the min ns/op and allocs/op on both sides", f)
	}
}

func TestRunCompareBadInputs(t *testing.T) {
	good := benchRun(table()...)
	for _, tc := range []struct{ name, rec, base, head string }{
		{"no PASS", record, good, strings.TrimSuffix(good, "PASS\n")},
		{"failed run", record, good, good + "--- FAIL: BenchmarkPerf/plan/uniform\nFAIL\n"},
		{"no -benchmem", record, "BenchmarkPerf/plan/uniform-2\t10\t918328 ns/op\nPASS\n", good},
		{"bad number", record, good, "BenchmarkPerf/plan/uniform-2\t10\tfast ns/op\t0 B/op\t0 allocs/op\nPASS\n"},
		{"record not JSON", "rows: plan/uniform", good, good},
		{"record empty", `{"rows": []}`, good, good},
		{"record unknown field", `{"rows": [{"name": "a", "ns_per_op": 1}]}`, good, good},
		{"record repeated row", `{"rows": [{"name": "a"}, {"name": "a"}]}`, good, good},
		{"unpaired episode samples", record, good, good + benchRun(without(table(), "episode/obs-disabled")...)},
	} {
		if code, out := gate(t, tc.rec, tc.base, tc.head); code != 2 {
			t.Errorf("%s: exit %d, want 2\n%s", tc.name, code, out)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := runCompare(filepath.Join(t.TempDir(), "absent.json"), "b", "h", &stdout, &stderr); code != 2 {
		t.Errorf("missing record file: exit %d, want 2", code)
	}
}
