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
		-serve-dpus 2 -serve-algs norec -serve-skews 0,1.2 \
		-serve-rates 150000 -serve-ops 300 -serve-keys 128 \
		-serve-batch 32 -serve-out ""

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
		-rebal-dpus 4 -rebal-skews 1.2 -rebal-reads 99 \
		-rebal-cells uniform \
		-rebal-rate 1200000 -rebal-ops 7680 -rebal-keys 2560 \
		-rebal-batch 768 -rebal-out ""

# Short-mode split-key serving smoke so the split policy can't rot in
# CI: the hot write-heavy counter cell (the smallest ablation cell that
# exercises split + reconciliation end to end) plus the differential
# reconciliation invariant across placement × scheduler × Sample.
splitserve-smoke:
	$(GO) run ./cmd/pimstm-bench -experiment rebalance \
		-rebal-dpus 4 -rebal-cells hot -rebal-policies migrate,split \
		-rebal-rate 1200000 -rebal-ops 7680 -rebal-keys 2560 \
		-rebal-batch 768 -rebal-out ""
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
		-txn-dpus 2,4 -txn-algs norec -txn-sizes 1,2 \
		-txn-cross 0,0.5,1 -txn-skews 1.2 -txn-txns 200 \
		-txn-keys 128 -txn-batch 32 -txn-scheds fifo -txn-out ""

# Short-mode scheduler-comparison sweep so the batch-scheduler axis
# can't rot in CI: one mixed-fraction cell under all three schedulers,
# no artifact written.
schedserve-smoke:
	$(GO) run ./cmd/pimstm-bench -experiment txnserve \
		-txn-dpus 4 -txn-algs norec -txn-sizes 2 \
		-txn-cross 0.5 -txn-skews 1.2 -txn-txns 200 \
		-txn-keys 128 -txn-batch 32 \
		-txn-scheds fifo,lane,adaptive -txn-out ""

# Regenerate the paper-scale sampled-fleet serving sweep (64 → 2500
# DPUs, BENCH_scale.json).
scale:
	$(GO) run ./cmd/pimstm-bench -experiment scale

# Short-mode scale invocation so sampled-fleet execution can't rot in
# CI: the small end of the fleet sweep, tight wall budget enforced as a
# hard failure, no artifact written. The bench-diff schema gate fails
# the target when the committed artifact lags a schema bump.
scale-smoke:
	$(GO) run ./cmd/bench-diff -require-schema 3 BENCH_scale.json
	$(GO) run ./cmd/pimstm-bench -experiment scale \
		-scale-dpus 64,256 -scale-budget-s 60 -scale-strict-budget -scale-out ""

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
		-apps-txns 200 -apps-min-cells 1 -apps-out ""

ci: fmt vet build race pimbench-test serve-smoke rebalance-smoke splitserve-smoke txnserve-smoke schedserve-smoke scale-smoke apps-smoke
