# Development targets. `make ci` is the gate a change must pass.

GO ?= go
FUZZTIME ?= 10s
LOAD_ADDR ?= http://localhost:8080

.PHONY: all build test race vet lint lint-sarif fmt-check ci experiments-check bench bench-compare fuzz-smoke serve-smoke cluster-smoke loadtest

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

# Build the repo's own analyzer suite (all nine analyzers, including the
# cfg+dataflow abstract-interpretation pair unitflow/probrange and the
# call-graph analyzer hotalloc) and run it over the whole tree. Any
# finding (see DESIGN.md sections 7, 9, 12 and 14) fails the build;
# intentional violations carry //lint:allow <analyzer> <reason>
# annotations.
lint: bin/cslint
	./bin/cslint ./...

# Same run, rendered as a SARIF 2.1.0 log for code-scanning UIs. The
# log is written even when findings make the target fail, so CI can
# upload it unconditionally.
lint-sarif: bin/cslint
	./bin/cslint -sarif ./... > cslint.sarif

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: fmt-check vet lint build race experiments-check serve-smoke cluster-smoke bench-compare

# Regenerate every experiment table and compare it byte for byte with
# the committed EXPERIMENTS.md from its "### E1 " heading to the end, so
# a refactor that moves a published number fails here, with a unified
# diff of the rows that moved. The fresh tables land in bin/experiments.md.
experiments-check:
	@mkdir -p bin
	$(GO) run ./cmd/csbench -format md > bin/experiments.md
	tail -n +$$(grep -n '^### E1 ' EXPERIMENTS.md | cut -d: -f1) EXPERIMENTS.md | diff -u - bin/experiments.md

# Boot csserve and drive it with csload: cache speedup, coalescing,
# 429 load shedding, metrics surface and graceful drain, asserted with
# jq. Artifacts land in serve-smoke-out/ (override with SMOKE_DIR).
serve-smoke:
	bash scripts/serve-smoke.sh

# Boot a 3-replica csserve cluster behind csgate and jq-assert the
# horizontal scaling story: at most one fresh computation per key
# cluster-wide per wave, warm-wave speedup through the gate, steal
# fill from a key's owner, zero non-429 client errors during a rolling
# replica restart, and a fully warm wave after the restarted replica
# rejoins. Artifacts land in cluster-smoke-out/ (override with
# CLUSTER_SMOKE_DIR).
cluster-smoke:
	bash scripts/cluster-smoke.sh

# Ad-hoc load generation against an already-running csserve
# (override LOAD_ADDR, e.g. make loadtest LOAD_ADDR=http://host:9000).
loadtest:
	$(GO) run ./cmd/csload -addr $(LOAD_ADDR)

# Short fuzz sessions over the boundary-facing parsers — the CLI spec
# parsers, the wire-facing traceparent header parser and the raw
# /v1/plan and /v1/estimate bodies: no panics or 500s, and accepted
# inputs must round-trip through their canonical forms. FuzzInverse
# holds the closed-form p⁻¹ of the paper families to Brent's root,
# FuzzLemma31Upper the once-per-plan Lemma 3.1 bound to the per-probe one,
# and FuzzExpectedWorkFrom the one-pass E(S;p) of the t0 search to
# sched.ExpectedWork of the generated schedule, bit for bit.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzInverse$$' -fuzztime $(FUZZTIME) ./internal/lifefn
	$(GO) test -run '^$$' -fuzz '^FuzzLemma31Upper$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzExpectedWorkFrom$$' -fuzztime $(FUZZTIME) ./internal/core
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

# Micro-benchmark regression gate: build the BenchmarkPerf table's test
# binary at BASE (default HEAD^) and at the working tree, run both
# alternately on this host and fail when `csbench -compare` finds a row
# whose min ns/op grew past its constant ratio over BASE, whose
# allocs/op exceed BENCH_perf.json, or which is missing. Raw outputs
# and the comparison land in bin/bench-gate/. Example:
# make bench-compare BASE=origin/main
bench-compare:
	bash scripts/bench-gate.sh
