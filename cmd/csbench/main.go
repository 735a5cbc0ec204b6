// Command csbench regenerates the paper-reproduction experiments
// (E1–E11 in DESIGN.md) and prints their tables.
//
// Usage:
//
//	csbench                  # run everything, aligned text output
//	csbench -run E1,E4       # selected experiments
//	csbench -format md       # GitHub-flavored markdown (EXPERIMENTS.md)
//	csbench -format csv      # CSV, one table after another
//	csbench -list            # list experiment ids and sources
//	csbench -compare BENCH_perf.json base.txt head.txt
//	                         # gate two `go test -bench BenchmarkPerf
//	                         # -benchmem` outputs (base commit, head):
//	                         # exit 1 on a breach (scripts/bench-gate.sh)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	var (
		runList = flag.String("run", "", "comma-separated experiment ids (default: all)")
		format  = flag.String("format", "text", "output format: text, md, csv")
		list    = flag.Bool("list", false, "list experiments and exit")
		timing  = flag.Bool("timing", false, "print per-experiment wall time to stderr")
		compare = flag.String("compare", "", "BENCH_perf.json; gate the bench outputs base.txt head.txt given as arguments, exit 1 on a breach")
	)
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "csbench: -compare wants two arguments: base.txt head.txt")
			os.Exit(2)
		}
		os.Exit(runCompare(*compare, flag.Arg(0), flag.Arg(1), os.Stdout, os.Stderr))
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %-70s [%s]\n", e.ID, e.Title, e.Source)
		}
		return
	}

	selected := all
	if *runList != "" {
		selected = selected[:0:0]
		for _, id := range strings.Split(*runList, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	var write func(t *report.Table) error
	switch *format {
	case "text":
		write = func(t *report.Table) error { return t.WriteText(os.Stdout) }
	case "md":
		write = func(t *report.Table) error { return t.WriteMarkdown(os.Stdout) }
	case "csv":
		write = func(t *report.Table) error { return t.WriteCSV(os.Stdout) }
	default:
		fmt.Fprintf(os.Stderr, "csbench: unknown format %q\n", *format)
		os.Exit(2)
	}

	exit := 0
	for _, e := range selected {
		start := time.Now()
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "csbench: %s failed: %v\n", e.ID, err)
			exit = 1
			continue
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		if err := write(tbl); err != nil {
			fmt.Fprintf(os.Stderr, "csbench: writing %s: %v\n", e.ID, err)
			exit = 1
		}
		fmt.Println()
	}
	os.Exit(exit)
}
