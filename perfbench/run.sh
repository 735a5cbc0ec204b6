#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload plan-hot --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the build's temporary files and the binary stay
# under .bench_build/ in the checkout (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
