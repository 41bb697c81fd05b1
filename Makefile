# Development targets. `make ci` is what .github/workflows/ci.yml runs;
# `make verify` is the repo's tier-1 gate.

GO ?= go

.PHONY: all verify fmt vet build test race pimbench-test bench bench-diff multidpu serve serve-smoke rebalance rebalance-smoke splitserve-smoke txnserve txnserve-smoke schedserve-smoke scale scale-smoke apps apps-smoke ci

all: ci

# Tier-1 verify (ROADMAP.md).
verify: build test

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark module (pimbench/) is a separate Go module that builds
# against this one, so the root `go test ./...` never reaches it. Its
# tests fail when a host API change breaks the benchmark's build or its
# HostParallelism 1-vs-0 modeled-fingerprint check.
pimbench-test:
	cd pimbench && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/host

# Diff two bench JSON artifacts cell by cell (ops/s + p99 deltas).
# Usage: make bench-diff OLD=BENCH_txnserve.json.bak NEW=BENCH_txnserve.json
bench-diff:
	$(GO) run ./cmd/bench-diff $(OLD) $(NEW)

# Regenerate the machine-readable multi-DPU serving sweep.
multidpu:
	$(GO) run ./cmd/pimstm-bench -experiment multidpu

# Regenerate the machine-readable adaptive-batching serving sweep.
serve:
	$(GO) run ./cmd/pimstm-bench -experiment serve

# Short-mode serve invocation so the experiment can't rot in CI
# (no artifact written).
serve-smoke:
	$(GO) run ./cmd/pimstm-bench -experiment serve \
		-set dpus=2 -set stm=norec -set zipf=0,1.2 \
		-set rate=150000 -set ops=300 -set keys=128 \
		-set batch=32 -out ""

# Regenerate the machine-readable skew-adaptive placement sweep.
rebalance:
	$(GO) run ./cmd/pimstm-bench -experiment rebalance

# Short-mode rebalance invocation so the experiment can't rot in CI:
# tiny fleet, one skewed scenario (uniform grid only), no artifact
# written. The bench-diff schema gate fails the target when the
# committed artifact lags the policy-axis schema bump.
rebalance-smoke:
	$(GO) run ./cmd/bench-diff -require-schema 2 BENCH_rebalance.json
	$(GO) run ./cmd/pimstm-bench -experiment rebalance \
		-set dpus=4 -set zipf=1.2 -set reads=99 \
		-set cells=uniform \
		-set rate=1200000 -set ops=7680 -set keys=2560 \
		-set batch=768 -out ""

# Short-mode split-key serving smoke so the split policy can't rot in
# CI: the hot write-heavy counter cell (the smallest ablation cell that
# exercises split + reconciliation end to end) plus the differential
# reconciliation invariant across placement × scheduler × Sample.
splitserve-smoke:
	$(GO) run ./cmd/pimstm-bench -experiment rebalance \
		-set dpus=4 -set cells=hot -set policy=migrate,split \
		-set rate=1200000 -set ops=7680 -set keys=2560 \
		-set batch=768 -out ""
	$(GO) test ./internal/host/ -run TestDifferentialSplitReconcile -count=1

# Regenerate the machine-readable multi-key transaction serving sweep.
txnserve:
	$(GO) run ./cmd/pimstm-bench -experiment txnserve

# Short-mode txnserve invocation so the experiment can't rot in CI:
# two fleet sizes, one skew, all three cross-DPU fractions, default
# FIFO scheduler only, no artifact written. The bench-diff schema gate
# fails the target when the committed artifact lags a schema bump, so a
# stale v2 BENCH_txnserve.json can't be silently diffed against v3 rows.
txnserve-smoke:
	$(GO) run ./cmd/bench-diff -require-schema 3 BENCH_txnserve.json
	$(GO) run ./cmd/pimstm-bench -experiment txnserve \
		-set dpus=2,4 -set stm=norec -set txn=1,2 \
		-set cross=0,0.5,1 -set zipf=1.2 -set txns=200 \
		-set keys=128 -set batch=32 -set sched=fifo -out ""

# Short-mode scheduler-comparison sweep so the batch-scheduler axis
# can't rot in CI: one mixed-fraction cell under all three schedulers,
# no artifact written.
schedserve-smoke:
	$(GO) run ./cmd/pimstm-bench -experiment txnserve \
		-set dpus=4 -set stm=norec -set txn=2 \
		-set cross=0.5 -set zipf=1.2 -set txns=200 \
		-set keys=128 -set batch=32 \
		-set sched=fifo,lane,adaptive -out ""

# Regenerate the paper-scale sampled-fleet serving sweep (64 → 2500
# DPUs, BENCH_scale.json).
scale:
	$(GO) run ./cmd/pimstm-bench -experiment scale

# Short-mode scale invocation so sampled-fleet execution can't rot in
# CI: the small end of the fleet sweep under a tight wall budget (a
# sweep over budget always fails), no artifact written. The bench-diff schema gate fails
# the target when the committed artifact lags a schema bump.
scale-smoke:
	$(GO) run ./cmd/bench-diff -require-schema 3 BENCH_scale.json
	$(GO) run ./cmd/pimstm-bench -experiment scale \
		-set dpus=64,256 -set budget_s=60 -out ""

# Regenerate the application-workload scenario matrix
# (BENCH_apps.json).
apps:
	$(GO) run ./cmd/pimstm-bench -experiment apps

# Short-mode apps invocation so the scenario matrix can't rot in CI:
# the bare pairwise cover with invariants proven per cell, no artifact
# written. The bench-diff schema gate fails the target when the
# committed artifact lags a schema bump.
apps-smoke:
	$(GO) run ./cmd/bench-diff -require-schema 1 BENCH_apps.json
	$(GO) run ./cmd/pimstm-bench -experiment apps \
		-set txns=200 -set min_cells=1 -out ""

ci: fmt vet build race pimbench-test serve-smoke rebalance-smoke splitserve-smoke txnserve-smoke schedserve-smoke scale-smoke apps-smoke
