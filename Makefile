# Development targets. `make ci` is the gate a change must pass.

GO ?= go
FUZZTIME ?= 10s
LOAD_ADDR ?= http://localhost:8080

.PHONY: all build test race vet lint lint-sarif lint-fix-check fmt-check ci bench bench-perf bench-compare fuzz-smoke serve-smoke cluster-smoke loadtest

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# cslint's own sources. The binary is a real file target keyed on them,
# so back-to-back lint invocations rebuild nothing (the Go build cache
# does the incremental work when a source file does change).
CSLINT_SRCS := $(shell find cmd/cslint internal/analysis -name '*.go' -not -path '*/testdata/*')

bin/cslint: $(CSLINT_SRCS) go.mod
	$(GO) build -o $@ ./cmd/cslint

# Build the repo's own analyzer suite (all eleven analyzers, including
# the cfg+dataflow abstract-interpretation trio unitflow/probrange/
# ctxguard) and run it over the whole tree. Any finding (see DESIGN.md
# sections 7, 9 and 12) fails the build; intentional violations carry
# //lint:allow <analyzer> <reason> annotations.
lint: bin/cslint
	./bin/cslint ./...

# Same run, rendered as a SARIF 2.1.0 log for code-scanning UIs. The
# log is written even when findings make the target fail, so CI can
# upload it unconditionally.
lint-sarif: bin/cslint
	./bin/cslint -sarif ./... > cslint.sarif

# Regenerate the lint baseline into a scratch file and require it to
# match the committed lint-baseline.json: a fixed finding still listed
# (stale entry) and a new unbaselined finding both fail, so the
# baseline only ever shrinks deliberately.
lint-fix-check: bin/cslint
	./bin/cslint -baseline bin/lint-baseline.check.json -write-baseline ./...
	diff -u lint-baseline.json bin/lint-baseline.check.json

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: fmt-check vet lint lint-fix-check build race serve-smoke cluster-smoke bench-compare

# Boot csserve and drive it with csload: cache speedup, coalescing,
# 429 load shedding, metrics surface and graceful drain, asserted with
# jq. Artifacts land in serve-smoke-out/ (override with SMOKE_DIR).
serve-smoke:
	bash scripts/serve-smoke.sh

# Boot a 3-replica csserve cluster behind csgate and jq-assert the
# horizontal scaling story for both fill policies: at most one fresh
# computation per key cluster-wide per wave, warm-wave speedup through
# the gate, zero non-429 client errors during a rolling replica
# restart, and a fully warm wave after the restarted replica rejoins.
# Artifacts land in cluster-smoke-out/<fill>/ (override with
# CLUSTER_SMOKE_DIR).
cluster-smoke:
	FILL=steal bash scripts/cluster-smoke.sh
	FILL=share bash scripts/cluster-smoke.sh

# Ad-hoc load generation against an already-running csserve
# (override LOAD_ADDR, e.g. make loadtest LOAD_ADDR=http://host:9000).
loadtest:
	$(GO) run ./cmd/csload -addr $(LOAD_ADDR)

# Short fuzz sessions over the boundary-facing parsers — the CLI spec
# parsers, the wire-facing traceparent header parser and the raw
# /v1/plan and /v1/estimate bodies: no panics or 500s, and accepted
# inputs must round-trip through their canonical forms.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime $(FUZZTIME) ./internal/nowsim
	$(GO) test -run '^$$' -fuzz '^FuzzParseDist$$' -fuzztime $(FUZZTIME) ./internal/nowsim
	$(GO) test -run '^$$' -fuzz '^FuzzBuildLife$$' -fuzztime $(FUZZTIME) ./internal/nowsim
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzPlanBody$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzEstimateBody$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzParseCSDirective$$' -fuzztime $(FUZZTIME) ./internal/analysis
	$(GO) test -run '^$$' -fuzz '^FuzzParseHotpathDirective$$' -fuzztime $(FUZZTIME) ./internal/analysis/callgraph

bench:
	$(GO) test -bench=. -benchmem ./...

# Writes BENCH_perf.json: calibrated micro-benchmarks over the episode,
# farm and sink hot paths (ns/op, allocs/op; min and median of N runs),
# plus the nil-obs overhead percentage the acceptance criterion bounds.
bench-perf:
	$(GO) run ./cmd/csbench -perf -perf-out $(CURDIR)/BENCH_perf.json

# Perf-history regression gate: re-run the calibrated suite live and
# diff it against the committed BENCH_perf.json under the per-benchmark
# ns/op and allocs/op budgets (exit 1 on any breach; budgets and slack
# are csbench -compare flags). The machine-readable diff lands in
# bin/bench-compare.json. Refresh the committed history with
# `make bench-perf` after a deliberate performance change.
bench-compare:
	$(GO) run ./cmd/csbench -compare $(CURDIR)/BENCH_perf.json -compare-out $(CURDIR)/bin/bench-compare.json
