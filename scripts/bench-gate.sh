#!/usr/bin/env bash
# Micro-benchmark regression gate: the BenchmarkPerf table in
# bench_test.go, measured at a base commit and at the working tree on
# this host, judged by `csbench -compare` (DESIGN.md §13).
#
#   * builds both test binaries with `go test -c`; the base from a
#     `git archive` of $BASE (default HEAD^), the head from the
#     working tree;
#   * runs each RUNS times, alternating which goes first, each run
#     taking one sample of every row at -benchtime BENCHTIME on one
#     CPU. Noise on a shared host comes in bursts of tens of
#     milliseconds; many short samples spread over the whole gate let
#     each row's min reach its quiet floor on both sides, and one
#     sample per run puts a run's two episode rows back to back. Then
#     EPISODE_RUNS more runs each of just those two rows;
#   * passes both raw outputs to csbench -compare, which keeps each
#     row's min over the runs and fails on a ns/op ratio over its
#     constant budget, allocs/op over BENCH_perf.json, a recorded row
#     missing at head, or nil-obs overhead over 2% (the median over
#     head's runs of obs-disabled over uninstrumented).
#
# Usage: bash scripts/bench-gate.sh            (base HEAD^)
#        BASE=origin/main bash scripts/bench-gate.sh
#
# base.txt, head.txt and compare.txt land in bin/bench-gate/. Exit code
# is csbench -compare's: 0 pass, 1 breach, 2 bad input.
set -euo pipefail

RUNS=200
EPISODE_RUNS=1000
BENCHTIME=2ms

cd "$(git rev-parse --show-toplevel)"
OUT=$PWD/bin/bench-gate
base_rev=$(git rev-parse --verify "${BASE:-HEAD^}^{commit}")
start=$SECONDS

rm -rf "$OUT"
mkdir -p "$OUT/base-src"
trap 'rm -rf "$OUT/base-src"' EXIT
git archive "$base_rev" | tar -x -C "$OUT/base-src"
(cd "$OUT/base-src" && go test -c -trimpath -o "$OUT/base.test" .)
go test -c -trimpath -o "$OUT/head.test" .
go build -o "$OUT/csbench" ./cmd/csbench

# run SIDE DIR ROWS: one pass over the rows the -test.bench pattern ROWS
# selects, from the side's package dir.
run() {
	(cd "$2" && "$OUT/$1.test" -test.run '^$' -test.bench "$3" \
		-test.benchmem -test.benchtime "$BENCHTIME" -test.cpu 1 \
		-test.timeout 10m) >> "$OUT/$1.txt"
}
# alternate N ROWS: N runs of each side, alternating which goes first.
alternate() {
	for i in $(seq "$1"); do
		if ((i % 2)); then
			run base "$OUT/base-src" "$2"; run head . "$2"
		else
			run head . "$2"; run base "$OUT/base-src" "$2"
		fi
	done
}
echo "bench-gate: base $base_rev vs working tree, $RUNS runs each of one $BENCHTIME sample per row, $EPISODE_RUNS of the episode rows"
alternate "$RUNS" '^BenchmarkPerf$'
# The nil-obs check pairs each run's two episode rows. With 200 pairs
# its median moved by 0.7 points (one standard deviation) from gate to
# gate on a noisy host, against a 2% budget. Runs of just those rows
# are cheap next to the table; both sides get them, so the rows' mins
# stay comparable.
alternate "$EPISODE_RUNS" '^BenchmarkPerf$/^episode/(uninstrumented|obs-disabled)$'

code=0
"$OUT/csbench" -compare BENCH_perf.json "$OUT/base.txt" "$OUT/head.txt" > "$OUT/compare.txt" || code=$?
cat "$OUT/compare.txt"
echo "bench-gate: $((SECONDS - start))s"
exit "$code"
