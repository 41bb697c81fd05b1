package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pimstm/internal/core"
	"pimstm/internal/host"
)

// rebalanceOptions parameterize the placement-policy ablation: fleet
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
// The cell axis holds the uniform/skewed read-mix grid of the original
// experiment (no hot counters, so the split policy is provably inert
// there — the sweep verifies its rows byte-identical to migrate's) plus
// one hot write-heavy counter cell: uniform background traffic with
// HotWriteFrac of the arrivals hammering HotKeys shared counters with
// commutative adds — the Doppel-style contention that migration cannot
// fix (the bottleneck kernel just moves) and splitting can.
//
// The interesting regime is kernel-bound batches: MaxBatch is sized so
// a skewed batch's worst-case per-DPU bucket costs more kernel time
// than the ~600 µs of transfer handshakes, which is when spreading the
// load — replicas, migrations, or delta shards — buys modeled
// throughput and tail latency.
type rebalanceOptions struct {
	// Fleets lists the DPU counts to sweep.
	Fleets []int
	// Skews are Zipf key-popularity exponents for the uniform-grid
	// cells (0 = uniform).
	Skews []float64
	// ReadPcts lists the read mixes of the uniform-grid cells.
	ReadPcts []int
	// Policies selects the control-plane arms (default all four).
	Policies []string
	// Cells selects the cell families: "all", "uniform" (the classic
	// grid only) or "hot" (the counter cell only).
	Cells string
	// HotKeys and HotWriteFrac shape the hot counter cell.
	HotKeys      int
	HotWriteFrac float64
	// Rate is the open-loop arrival rate in ops per modeled second.
	Rate float64
	// Ops per scenario and the Keyspace they draw from.
	Ops, Keyspace int
	// MaxBatch and MaxDelaySeconds tune the adaptive batcher.
	MaxBatch        int
	MaxDelaySeconds float64
	// WindowBatches is the rebalancer's decision window.
	WindowBatches int
	// Tasklets is the intra-DPU parallelism; Seed the traffic seed.
	Tasklets int
	Seed     uint64
	// Parallelism is the host-side worker-pool setting (0 = GOMAXPROCS,
	// N = N workers).
	Parallelism int
	// Out is the JSON artifact path ("" = don't write).
	Out string
}

func (o *rebalanceOptions) fill() {
	if len(o.Fleets) == 0 {
		o.Fleets = []int{4, 8}
	}
	if len(o.Skews) == 0 {
		o.Skews = []float64{0, 1.2}
	}
	if len(o.ReadPcts) == 0 {
		o.ReadPcts = []int{99, 50}
	}
	if len(o.Policies) == 0 {
		o.Policies = []string{"none", "replicate", "migrate", "split"}
	}
	if o.Cells == "" {
		o.Cells = "all"
	}
	if o.HotKeys == 0 {
		// One counter: the canonical Doppel bottleneck. Migration can
		// spread several hot keys across the fleet, but a single hot
		// counter pins one DPU's kernel no matter where it lives —
		// only splitting dissolves it.
		o.HotKeys = 1
	}
	if o.HotWriteFrac == 0 {
		o.HotWriteFrac = 0.9
	}
	if o.Rate == 0 {
		o.Rate = 3e6
	}
	if o.Ops == 0 {
		o.Ops = 38400
	}
	if o.Keyspace == 0 {
		o.Keyspace = 10240
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 2560
	}
	if o.MaxDelaySeconds == 0 {
		// Large enough that MaxBatch, not the delay bound, shapes the
		// batches at the default rate: the experiment studies placement
		// under kernel-bound batches, not thin delay-flushed ones.
		o.MaxDelaySeconds = 2e-3
	}
	if o.WindowBatches == 0 {
		// One batch per decision window: the ablation studies where each
		// remedy's steady state lands, so the control plane reacts at
		// batch granularity instead of spending a fifth of the run
		// undecided (a 2560-op batch is plenty of window statistics).
		o.WindowBatches = 1
	}
	if o.Tasklets == 0 {
		o.Tasklets = 11
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// rebalanceCell is one traffic shape of the sweep.
type rebalanceCell struct {
	skew    float64
	readPct int
	hotKeys int
	hotFrac float64
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

// rebalanceReport is the top-level JSON artifact.
type rebalanceReport struct {
	SchemaVersion int                 `json:"schema_version"`
	Experiment    string              `json:"experiment"`
	Scenarios     []rebalanceScenario `json:"scenarios"`
}

// rebalanceSchemaVersion bumps when row identity or fields change:
// v2 = policy-axis rows (none/replicate/migrate/split) with the
// hot-counter cell knobs in the identity.
const rebalanceSchemaVersion = 2

// policyRebalance maps a policy arm to its placement + control plane.
func policyRebalance(policy string, dpus int, opt rebalanceOptions) (host.Placement, *host.RebalancerConfig, error) {
	if policy == "none" {
		return nil, nil, nil
	}
	cfg := host.KernelBoundServingRebalance(opt.WindowBatches)
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
		return nil, nil, fmt.Errorf("unknown rebalance policy %q (want none, replicate, migrate or split)", policy)
	}
	return host.NewDirectory(dpus), &cfg, nil
}

// runRebalanceCell serves one cell's trace under one policy.
func runRebalanceCell(dpus int, cell rebalanceCell, policy string, opt rebalanceOptions) (rebalanceScenario, error) {
	placement, reb, err := policyRebalance(policy, dpus, opt)
	if err != nil {
		return rebalanceScenario{}, err
	}
	res, err := host.Serve(host.ServeConfig{
		Map: host.PartitionedMapConfig{
			DPUs: dpus, Tasklets: opt.Tasklets,
			STM:             core.Config{Algorithm: core.NOrec},
			Mode:            host.Pipelined,
			Placement:       placement,
			HostParallelism: opt.Parallelism,
		},
		Submit: host.SubmitterConfig{
			MaxBatch:        opt.MaxBatch,
			MaxDelaySeconds: opt.MaxDelaySeconds,
		},
		Traffic: host.TrafficConfig{
			Ops: opt.Ops, Rate: opt.Rate, ReadPct: cell.readPct,
			Keyspace: opt.Keyspace, ZipfS: cell.skew, Seed: opt.Seed,
			HotKeys: cell.hotKeys, HotWriteFrac: cell.hotFrac,
		},
		Rebalance: reb,
	})
	if err != nil {
		return rebalanceScenario{}, err
	}
	if res.Errors > 0 {
		return rebalanceScenario{}, fmt.Errorf("%d/%d ops errored", res.Errors, opt.Ops)
	}
	return rebalanceScenario{
		DPUs: dpus, Policy: policy,
		ReadPct: cell.readPct, ZipfS: cell.skew,
		HotKeys: cell.hotKeys, HotWriteFrac: cell.hotFrac,
		RatePerSecond: opt.Rate, Ops: opt.Ops, MaxBatch: opt.MaxBatch,
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

// runRebalance sweeps fleet × cell × policy, renders the table to w,
// and writes BENCH_rebalance.json when opt.Out is set. On every cell
// without hot counters it verifies the split arm byte-identical to the
// migrate arm — no commutative adds means the split trigger must be
// provably inert, the hysteresis guarantee of the policy.
func runRebalance(opt rebalanceOptions, w io.Writer) ([]rebalanceScenario, error) {
	opt.fill()
	var cells []rebalanceCell
	if opt.Cells == "all" || opt.Cells == "uniform" {
		for _, skew := range opt.Skews {
			for _, pct := range opt.ReadPcts {
				cells = append(cells, rebalanceCell{skew: skew, readPct: pct})
			}
		}
	}
	if opt.Cells == "all" || opt.Cells == "hot" {
		// Uniform background so the only hotspot is the counters
		// themselves; the heavily commutative mix is the regime the
		// split remedy exists for, with the background's stray
		// reads/writes of the counter forcing occasional paid
		// reconciliations.
		cells = append(cells, rebalanceCell{
			skew: 0, readPct: 50,
			hotKeys: opt.HotKeys, hotFrac: opt.HotWriteFrac,
		})
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("unknown cell selector %q (want all, uniform or hot)", opt.Cells)
	}

	var scenarios []rebalanceScenario
	for _, n := range opt.Fleets {
		for _, cell := range cells {
			rows := make(map[string]rebalanceScenario, len(opt.Policies))
			for _, policy := range opt.Policies {
				sc, err := runRebalanceCell(n, cell, policy, opt)
				if err != nil {
					return nil, fmt.Errorf("rebalance %d DPUs zipf %g %d%% reads hot %g×%d policy %s: %w",
						n, cell.skew, cell.readPct, cell.hotFrac, cell.hotKeys, policy, err)
				}
				rows[policy] = sc
				scenarios = append(scenarios, sc)
			}
			if cell.hotFrac == 0 {
				mig, hasMig := rows["migrate"]
				spl, hasSpl := rows["split"]
				if hasMig && hasSpl && !samePolicyNumbers(mig, spl) {
					return nil, fmt.Errorf("rebalance %d DPUs zipf %g %d%% reads: split diverged from migrate without commutative traffic:\nmigrate %+v\nsplit   %+v",
						n, cell.skew, cell.readPct, mig, spl)
				}
				if hasSpl && (spl.KeysSplit != 0 || spl.SplitReconciles != 0) {
					return nil, fmt.Errorf("rebalance %d DPUs zipf %g %d%% reads: split policy acted on add-free traffic: %+v",
						n, cell.skew, cell.readPct, spl)
				}
			}
		}
	}

	fmt.Fprintf(w, "== rebalance: placement-policy ablation — none / replicate / migrate / split (%d ops/cell, batch ≤ %d, %.0f ops/s open loop) ==\n",
		opt.Ops, opt.MaxBatch, opt.Rate)
	fmt.Fprintln(w, hostParHeader(opt.Parallelism))
	fmt.Fprintf(w, "%6s %5s %5s %4s %5s %10s %13s %12s %5s %5s %5s %6s\n",
		"#DPUs", "reads", "zipf", "hotk", "hotw", "policy", "ops/s", "p99ms", "repl", "migr", "split", "recon")
	for _, sc := range scenarios {
		fmt.Fprintf(w, "%6d %4d%% %5.2f %4d %5.2f %10s %13.0f %12.3f %5d %5d %5d %6d\n",
			sc.DPUs, sc.ReadPct, sc.ZipfS, sc.HotKeys, sc.HotWriteFrac, sc.Policy,
			sc.OpsPerSecond, sc.P99Seconds*1e3,
			sc.KeysReplicated, sc.KeysMigrated, sc.KeysSplit, sc.SplitReconciles)
	}

	if opt.Out != "" {
		blob, err := json.MarshalIndent(rebalanceReport{
			SchemaVersion: rebalanceSchemaVersion,
			Experiment:    "rebalance",
			Scenarios:     scenarios,
		}, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(opt.Out, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "wrote %s (%d scenarios)\n", opt.Out, len(scenarios))
	}
	return scenarios, nil
}
