package main

import (
	"fmt"

	"pimstm/internal/host"
	"pimstm/internal/workload"
)

// rebalanceSweep is the placement-policy ablation: fleet
// size × traffic cell × control-plane policy, every cell served through
// the pipelined adaptive batcher at the same open-loop arrival rate.
//
// The policy axis isolates each remedy of the Rebalancer:
//
//	none       static hash, no control plane — the baseline
//	replicate  every hot key is promoted to read replicas
//	migrate    every hot key is migrated to the least-loaded DPU
//	split      migrate, plus commutative hot keys enter split-key
//	           execution (per-DPU delta shards, epoch reconciliation)
//
// The cells axis selects the uniform/skewed read-mix grid of the
// original experiment (no hot counters, so the split policy is provably
// inert there — the sweep verifies its rows byte-identical to
// migrate's) and one hot write-heavy counter cell: uniform background
// traffic with hot_write of the arrivals hammering hot_keys shared
// counters with commutative adds — the Doppel-style contention that
// migration cannot fix (the bottleneck kernel just moves) and
// splitting can.
//
// The interesting regime is kernel-bound batches: batch is sized so
// a skewed batch's worst-case per-DPU bucket costs more kernel time
// than the ~600 µs of transfer handshakes, which is when spreading the
// load — replicas, migrations, or delta shards — buys modeled
// throughput and tail latency.
var rebalanceSweep = &sweep[rebalanceScenario]{
	name:   "rebalance",
	title:  "placement-policy ablation — none / replicate / migrate / split",
	schema: rebalanceSchemaVersion,
	axes: []axis{
		{"dpus", "4,8", isInt},
		{"cells", "uniform,hot", oneOf("uniform", "hot")},
		{"zipf", "0,1.2", isFloat},
		{"reads", "99,50", isInt},
		{"policy", "none,replicate,migrate,split", isPolicy},
	},
	knobs: []axis{
		{"rate", "3e6", isFloat},
		{"ops", "38400", isInt},
		{"keys", "10240", isInt},
		{"batch", "2560", isInt},
	},
	fixed: workload.Cell{
		// One counter taking 90% of the hot cell's arrivals: the
		// canonical Doppel bottleneck. Migration can spread several hot
		// keys across the fleet, but a single hot counter pins one DPU's
		// kernel no matter where it lives — only splitting dissolves it.
		"hot_keys": "1", "hot_write": "0.9",
		// Large enough that batch, not the delay bound, shapes the
		// batches at the default rate: the experiment studies placement
		// under kernel-bound batches, not thin delay-flushed ones.
		"delay_s": "2e-3",
		// One batch per decision window: the ablation studies where each
		// remedy's steady state lands, so the control plane reacts at
		// batch granularity instead of spending a fifth of the run
		// undecided (a 2560-op batch is plenty of window statistics).
		"window":   "1",
		"stm":      "norec",
		"tasklets": "11", "seed": "1",
	},
	predicates: []predicate{
		// The hot cell ignores the read-mix grid: keep one copy of it.
		{"hot-cell-has-no-grid", func(c, first workload.Cell) bool {
			return c["cells"] == "hot" && (c["zipf"] != first["zipf"] || c["reads"] != first["reads"])
		}},
	},
	cell:  runRebalanceCell,
	check: checkSplitInert,
	columns: fmt.Sprintf("%6s %5s %5s %4s %5s %10s %13s %12s %5s %5s %5s %6s",
		"#DPUs", "reads", "zipf", "hotk", "hotw", "policy", "ops/s", "p99ms", "repl", "migr", "split", "recon"),
	row: func(sc rebalanceScenario) string {
		return fmt.Sprintf("%6d %4d%% %5.2f %4d %5.2f %10s %13.0f %12.3f %5d %5d %5d %6d",
			sc.DPUs, sc.ReadPct, sc.ZipfS, sc.HotKeys, sc.HotWriteFrac, sc.Policy,
			sc.OpsPerSecond, sc.P99Seconds*1e3,
			sc.KeysReplicated, sc.KeysMigrated, sc.KeysSplit, sc.SplitReconciles)
	},
}

// rebalanceScenario is one (fleet, cell, policy) row of
// BENCH_rebalance.json — schema 2 flattened the old per-cell
// static/directory pair into one row per policy so the policy axis can
// grow without another schema bump.
type rebalanceScenario struct {
	DPUs          int     `json:"dpus"`
	Policy        string  `json:"policy"`
	ReadPct       int     `json:"read_pct"`
	ZipfS         float64 `json:"zipf_s"`
	HotKeys       int     `json:"hot_keys"`
	HotWriteFrac  float64 `json:"hot_write_frac"`
	RatePerSecond float64 `json:"rate_ops_per_s"`
	Ops           int     `json:"ops"`
	MaxBatch      int     `json:"max_batch"`

	OpsPerSecond float64 `json:"ops_per_s"`
	P50Seconds   float64 `json:"p50_s"`
	P95Seconds   float64 `json:"p95_s"`
	P99Seconds   float64 `json:"p99_s"`
	Batches      int     `json:"batches"`
	Makespan     float64 `json:"makespan_s"`

	WindowsEvaluated int `json:"windows_evaluated"`
	WindowsActed     int `json:"windows_acted"`
	KeysReplicated   int `json:"keys_replicated"`
	KeysMigrated     int `json:"keys_migrated"`
	KeysSplit        int `json:"keys_split"`
	KeysUnsplit      int `json:"keys_unsplit"`
	SplitReconciles  int `json:"split_reconciles"`
}

// rebalanceSchemaVersion bumps when row identity or fields change:
// v2 = policy-axis rows (none/replicate/migrate/split) with the
// hot-counter cell knobs in the identity.
const rebalanceSchemaVersion = 2

// policyRebalance maps a policy arm to its placement + control plane
// deciding every window batches ("static" is apps' name for "none").
func policyRebalance(policy string, dpus, window int) (host.Placement, *host.RebalancerConfig, error) {
	if policy == "none" || policy == "static" {
		return nil, nil, nil
	}
	cfg := host.KernelBoundServingRebalance(window)
	switch policy {
	case "replicate":
		cfg.ReplicateMaxWriteShare = 1.0
	case "migrate":
		// Effectively zero: every hot key is write-heavy enough to move.
		cfg.ReplicateMaxWriteShare = 1e-9
	case "split":
		cfg.ReplicateMaxWriteShare = 1e-9
		cfg.SplitMinAddShare = 0.5
	default:
		return nil, nil, fmt.Errorf("unknown rebalance policy %q (want none, static, replicate, migrate or split)", policy)
	}
	return host.NewDirectory(dpus), &cfg, nil
}

// runRebalanceCell serves one cell's trace under one policy.
func runRebalanceCell(_ workload.Matrix, c workload.Cell, par int) (rebalanceScenario, error) {
	cfg, err := serveConfig(c, par)
	if err != nil {
		return rebalanceScenario{}, err
	}
	if c["cells"] == "hot" {
		// Uniform background so the only hotspot is the counters
		// themselves; the heavily commutative mix is the regime the
		// split remedy exists for, with the background's stray
		// reads/writes of the counter forcing occasional paid
		// reconciliations.
		cfg.Traffic.ZipfS, cfg.Traffic.ReadPct = 0, 50
		cfg.Traffic.HotKeys, cfg.Traffic.HotWriteFrac = intAt(c, "hot_keys"), floatAt(c, "hot_write")
	}
	res, err := host.Serve(cfg)
	if err != nil {
		return rebalanceScenario{}, err
	}
	t := cfg.Traffic
	if res.Errors > 0 {
		return rebalanceScenario{}, fmt.Errorf("%d/%d ops errored", res.Errors, t.Ops)
	}
	return rebalanceScenario{
		DPUs: cfg.Map.DPUs, Policy: c["policy"],
		ReadPct: t.ReadPct, ZipfS: t.ZipfS,
		HotKeys: t.HotKeys, HotWriteFrac: t.HotWriteFrac,
		RatePerSecond: t.Rate, Ops: t.Ops, MaxBatch: cfg.Submit.MaxBatch,
		OpsPerSecond: res.OpsPerSecond,
		P50Seconds:   res.P50, P95Seconds: res.P95, P99Seconds: res.P99,
		Batches: res.Batches, Makespan: res.MakespanSeconds,
		WindowsEvaluated: res.Rebalance.WindowsEvaluated,
		WindowsActed:     res.Rebalance.WindowsActed,
		KeysReplicated:   res.Rebalance.KeysReplicated,
		KeysMigrated:     res.Rebalance.KeysMigrated,
		KeysSplit:        res.Rebalance.KeysSplit,
		KeysUnsplit:      res.Rebalance.KeysUnsplit,
		SplitReconciles:  res.SplitReconciles,
	}, nil
}

// samePolicyNumbers reports whether two rows of one cell produced
// byte-identical serving numbers (everything but the policy label and
// control-plane counters).
func samePolicyNumbers(a, b rebalanceScenario) bool {
	a.Policy, b.Policy = "", ""
	return a == b
}

// checkSplitInert verifies, on every cell without hot counters, the
// split arm byte-identical to the migrate arm — no commutative adds
// means the split trigger must be provably inert, the hysteresis
// guarantee of the policy.
func checkSplitInert(rows []rebalanceScenario) error {
	type cellKey struct {
		dpus, reads int
		zipf        float64
	}
	migrate := map[cellKey]rebalanceScenario{}
	for _, r := range rows {
		if r.HotWriteFrac == 0 && r.Policy == "migrate" {
			migrate[cellKey{r.DPUs, r.ReadPct, r.ZipfS}] = r
		}
	}
	for _, spl := range rows {
		if spl.HotWriteFrac != 0 || spl.Policy != "split" {
			continue
		}
		if mig, ok := migrate[cellKey{spl.DPUs, spl.ReadPct, spl.ZipfS}]; ok && !samePolicyNumbers(mig, spl) {
			return fmt.Errorf("%d DPUs zipf %g %d%% reads: split diverged from migrate without commutative traffic:\nmigrate %+v\nsplit   %+v",
				spl.DPUs, spl.ZipfS, spl.ReadPct, mig, spl)
		}
		if spl.KeysSplit != 0 || spl.SplitReconciles != 0 {
			return fmt.Errorf("%d DPUs zipf %g %d%% reads: split policy acted on add-free traffic: %+v",
				spl.DPUs, spl.ZipfS, spl.ReadPct, spl)
		}
	}
	return nil
}
