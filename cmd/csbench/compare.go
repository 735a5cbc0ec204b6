package main

// The -compare gate: diff `go test -bench -benchmem` output of the
// BenchmarkPerf table at a base commit against the same table at head,
// both measured on one host, and fail on a regression.
//
// scripts/bench-gate.sh runs the two test binaries several times,
// alternating which goes first, and hands both outputs here. Each row
// keeps its min over all samples, the standard noise floor for
// micro-benchmarks: a min compares best case with best case, so a
// neighbour's burst during some samples does not read as a regression.
// A row breaches when
//
//   - head ns/op exceeds base ns/op × nsRatioBudget;
//   - head allocs/op exceeds the allocs/op recorded for the row in
//     BENCH_perf.json (allocation counts do not depend on the host, so
//     they are held to a committed record rather than to the base);
//   - the row is recorded but missing at head, which is how a
//     regression would hide from its own gate.
//
// A row absent at the base (a row the change adds) is reported but has
// no ns/op gate, and a row absent from the record has no allocs/op
// gate.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

const (
	// nsRatioBudget is the largest head/base ratio of min ns/op that
	// passes: the tightest 0.05 step that every unchanged row passed,
	// in either direction, over 19 gate runs on a shared 2-core host
	// (ratios within [0.90, 1.08]; DESIGN.md §13).
	nsRatioBudget = 1.15
	// benchPrefix names the table; its sub-benchmarks are the rows.
	benchPrefix = "BenchmarkPerf/"
)

// benchRow is one row's min ns/op and min allocs/op over its runs.
type benchRow struct {
	ns, allocs float64
}

// parseBench reads `go test -bench -benchmem` output, possibly several
// runs concatenated, and returns the rows of the BenchmarkPerf table
// by name, without the table prefix and the -GOMAXPROCS suffix. Other
// benchmarks' lines are skipped. An input without a PASS line, with a
// FAIL line, or with a table line that does not parse is an error:
// each means a run did not finish.
func parseBench(r io.Reader) (map[string]benchRow, error) {
	rows := make(map[string]benchRow)
	passed := false
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		switch {
		case text == "PASS":
			passed = true
			continue
		case strings.HasPrefix(text, "FAIL"), strings.HasPrefix(text, "--- FAIL"):
			return nil, fmt.Errorf("line %d: a benchmark run failed: %s", line, text)
		case !strings.HasPrefix(text, benchPrefix):
			continue
		}
		name, ns, allocs, err := parseBenchLine(text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		row, seen := rows[name]
		if !seen || ns < row.ns {
			row.ns = ns
		}
		if !seen || allocs < row.allocs {
			row.allocs = allocs
		}
		rows[name] = row
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !passed {
		return nil, fmt.Errorf("no PASS line: the benchmark run did not finish")
	}
	return rows, nil
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkPerf/episode/uninstrumented-2  449059  377.3 ns/op  0 B/op  0 allocs/op
func parseBenchLine(text string) (name string, ns, allocs float64, err error) {
	f := strings.Fields(text)
	name = strings.TrimPrefix(f[0], benchPrefix)
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	ns, allocs = -1, -1
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", 0, 0, fmt.Errorf("bad value %q in %q", f[i], text)
		}
		switch f[i+1] {
		case "ns/op":
			ns = v
		case "allocs/op":
			allocs = v
		}
	}
	if ns < 0 || allocs < 0 {
		return "", 0, 0, fmt.Errorf("want ns/op and allocs/op (run with -benchmem) in %q", text)
	}
	return name, ns, allocs, nil
}

// allocRecord is BENCH_perf.json: the table's rows in order, each with
// its committed allocs/op.
type allocRecord struct {
	Rows []struct {
		Name        string  `json:"name"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"rows"`
}

func loadRecord(path string) (allocRecord, error) {
	var rec allocRecord
	f, err := os.Open(path)
	if err != nil {
		return rec, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	if len(rec.Rows) == 0 {
		return rec, fmt.Errorf("%s: no rows", path)
	}
	seen := make(map[string]bool, len(rec.Rows))
	for _, r := range rec.Rows {
		if r.Name == "" || seen[r.Name] || r.AllocsPerOp < 0 {
			return rec, fmt.Errorf("%s: bad or repeated row %q", path, r.Name)
		}
		seen[r.Name] = true
	}
	return rec, nil
}

func loadBench(path string) (map[string]benchRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// runCompare is the -compare entry point: recordPath is BENCH_perf.json,
// basePath and headPath the two bench outputs. Exit codes: 0 no
// breach, 1 breach, 2 bad input.
func runCompare(recordPath, basePath, headPath string, stdout, stderr io.Writer) int {
	rec, err := loadRecord(recordPath)
	if err != nil {
		fmt.Fprintln(stderr, "csbench: compare record:", err)
		return 2
	}
	base, err := loadBench(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "csbench: compare base:", err)
		return 2
	}
	head, err := loadBench(headPath)
	if err != nil {
		fmt.Fprintln(stderr, "csbench: compare head:", err)
		return 2
	}

	// Recorded rows first, in record order, then head rows the record
	// does not know, by name.
	recorded := make(map[string]float64, len(rec.Rows))
	var names []string
	for _, r := range rec.Rows {
		recorded[r.Name] = r.AllocsPerOp
		names = append(names, r.Name)
	}
	var extra []string
	for name := range head {
		if _, ok := recorded[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	names = append(names, extra...)

	fmt.Fprintf(stdout, "%-8s %-24s %12s %12s %7s %9s %9s\n",
		"", "row", "base ns/op", "head ns/op", "ratio", "allocs/op", "record")
	breaches := 0
	for _, name := range names {
		h, atHead := head[name]
		recAllocs, isRecorded := recorded[name]
		if !atHead {
			breaches++
			fmt.Fprintf(stdout, "BREACH   %-24s missing at head\n", name)
			continue
		}
		status, ratio, baseNs := "ok", "-", "-"
		var notes []string
		if b, ok := base[name]; ok {
			baseNs = fmt.Sprintf("%.1f", b.ns)
			ratio = fmt.Sprintf("x%.2f", h.ns/b.ns)
			if h.ns > b.ns*nsRatioBudget {
				status = "BREACH"
				notes = append(notes, fmt.Sprintf("ns/op over base x%.2f", nsRatioBudget))
			}
		} else {
			notes = append(notes, "not at base: ns/op not gated")
		}
		recCol := "-"
		if isRecorded {
			recCol = strconv.FormatFloat(recAllocs, 'f', -1, 64)
			if h.allocs > recAllocs {
				status = "BREACH"
				notes = append(notes, "allocs/op over record")
			}
		} else {
			notes = append(notes, "not recorded: allocs/op not gated")
		}
		if status == "BREACH" {
			breaches++
		}
		fmt.Fprintf(stdout, "%-8s %-24s %12s %12.1f %7s %9g %9s  %s\n",
			status, name, baseNs, h.ns, ratio, h.allocs, recCol, strings.Join(notes, "; "))
	}

	if breaches > 0 {
		fmt.Fprintf(stdout, "FAIL: %d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintf(stdout, "PASS: %d row(s), ns/op within x%.2f of base, allocs/op within record\n", len(names), nsRatioBudget)
	return 0
}
