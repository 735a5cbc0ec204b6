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
#     each row's min reach its quiet floor on both sides;
#   * passes both raw outputs to csbench -compare, which keeps each
#     row's min over the runs and fails on a ns/op ratio over its
#     constant budget, allocs/op over BENCH_perf.json, or a recorded
#     row missing at head.
#
# Usage: bash scripts/bench-gate.sh            (base HEAD^)
#        BASE=origin/main bash scripts/bench-gate.sh
#
# base.txt, head.txt and compare.txt land in bin/bench-gate/. Exit code
# is csbench -compare's: 0 pass, 1 breach, 2 bad input.
set -euo pipefail

RUNS=200
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

# run SIDE DIR: one pass over the table from the side's package dir.
run() {
	(cd "$2" && "$OUT/$1.test" -test.run '^$' -test.bench '^BenchmarkPerf$' \
		-test.benchmem -test.benchtime "$BENCHTIME" -test.cpu 1 \
		-test.timeout 10m) >> "$OUT/$1.txt"
}
echo "bench-gate: base $base_rev vs working tree, $RUNS runs each of one $BENCHTIME sample per row"
# RUNS runs of each side, alternating which goes first.
for i in $(seq "$RUNS"); do
	if ((i % 2)); then
		run base "$OUT/base-src"; run head .
	else
		run head .; run base "$OUT/base-src"
	fi
done

code=0
"$OUT/csbench" -compare BENCH_perf.json "$OUT/base.txt" "$OUT/head.txt" > "$OUT/compare.txt" || code=$?
cat "$OUT/compare.txt"
echo "bench-gate: $((SECONDS - start))s"
exit "$code"
