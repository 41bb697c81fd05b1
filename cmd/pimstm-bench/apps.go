package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"pimstm/internal/core"
	"pimstm/internal/host"
	"pimstm/internal/workload"
)

// The apps experiment is the application-workload scenario matrix:
// instead of hand-enumerated nested sweeps, it declares the axes
// (workload × fleet × skew × txn shape × cross fraction × scheduler ×
// placement policy × STM algorithm), the exclusion predicates that
// carve out meaningless cells, and lets workload.Matrix expand a
// pairwise-covering cell set. Every cell serves a deterministic
// application trace (KV, TPC-C-style NewOrder, RUBiS-style Auction)
// through the full serving stack and then proves the workload's
// conservation invariant against the served store — a benchmark run
// that silently corrupts state fails loudly instead of publishing
// numbers.
type appsOptions struct {
	// Txns is the trace length per cell.
	Txns int
	// Rate is the open-loop arrival rate in transactions per modeled
	// second.
	Rate float64
	// Keyspace is the KV cells' key count (application cells size their
	// own key layouts).
	Keyspace int
	// ReadPct of the KV traffic is Gets.
	ReadPct int
	// MaxBatch and MaxDelaySeconds tune the batcher.
	MaxBatch        int
	MaxDelaySeconds float64
	// Tasklets is the intra-DPU parallelism.
	Tasklets int
	// MinCells pads the covering set to at least this many cells.
	MinCells int
	// Seed drives both the matrix expansion and every cell's traffic.
	Seed uint64
	// Parallelism is the host-side worker-pool setting (0 = GOMAXPROCS,
	// N = N workers).
	Parallelism int
	// Out is the JSON artifact path ("" = don't write).
	Out string
}

func (o *appsOptions) fill() {
	if o.Txns == 0 {
		o.Txns = 400
	}
	if o.Rate == 0 {
		o.Rate = 2e5
	}
	if o.Keyspace == 0 {
		o.Keyspace = 128
	}
	if o.ReadPct == 0 {
		o.ReadPct = 80
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 48
	}
	if o.MaxDelaySeconds == 0 {
		o.MaxDelaySeconds = 300e-6
	}
	if o.Tasklets == 0 {
		o.Tasklets = 4
	}
	if o.MinCells == 0 {
		o.MinCells = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// appsMatrix declares the scenario space. The predicates encode the
// harness's real constraints: transaction-shape and cross-DPU knobs
// only exist on the synthetic KV generator, cross-DPU and non-static
// placement need a fleet, and the split policy is pointless on
// read-mostly KV traffic (the application workloads are the ones with
// commutative hot counters).
func appsMatrix(minCells int) workload.Matrix {
	atLeast := func(c workload.Cell, axis string, n int) bool {
		v, _ := strconv.Atoi(c[axis])
		return v >= n
	}
	return workload.Matrix{
		Axes: []workload.Axis{
			{Name: "workload", Values: []string{"kv", "neworder", "auction"}},
			{Name: "dpus", Values: []string{"1", "4", "8"}},
			{Name: "zipf", Values: []string{"0", "1.1"}},
			{Name: "txn", Values: []string{"1", "3"}},
			{Name: "cross", Values: []string{"0", "0.5"}},
			{Name: "sched", Values: []string{"fifo", "lane"}},
			{Name: "place", Values: []string{"static", "migrate", "split"}},
			{Name: "stm", Values: []string{"norec", "tinyetlwb"}},
		},
		Predicates: []workload.Predicate{
			{Name: "txn-shaping-is-kv-only", Reject: func(c workload.Cell) bool {
				return c["txn"] != "1" && c["workload"] != "kv"
			}},
			{Name: "cross-needs-multiop-multidpu-kv", Reject: func(c workload.Cell) bool {
				return c["cross"] != "0" && (c["workload"] != "kv" || c["txn"] == "1" || !atLeast(c, "dpus", 2))
			}},
			{Name: "placement-needs-multidpu", Reject: func(c workload.Cell) bool {
				return c["place"] != "static" && !atLeast(c, "dpus", 2)
			}},
			{Name: "split-needs-rmw-traffic", Reject: func(c workload.Cell) bool {
				return c["place"] == "split" && c["workload"] == "kv"
			}},
		},
		MinCells: minCells,
	}
}

// appsScenario is one machine-readable cell of BENCH_apps.json.
type appsScenario struct {
	// Cell is the stable "axis=value,…" identity; Axes are the same
	// tags broken out for tooling.
	Cell string            `json:"cell"`
	Axes map[string]string `json:"axes"`

	Txns            int     `json:"txns"`
	Ops             int     `json:"ops"`
	Aborted         int     `json:"aborted"`
	GuardAborts     int     `json:"guard_aborts"`
	CoordinatedTxns int     `json:"coordinated_txns"`
	Batches         int     `json:"batches"`
	OpsPerSecond    float64 `json:"ops_per_s"`
	P50Seconds      float64 `json:"p50_s"`
	P95Seconds      float64 `json:"p95_s"`
	P99Seconds      float64 `json:"p99_s"`
	Makespan        float64 `json:"makespan_s"`
	KeysMigrated    int     `json:"keys_migrated"`
	KeysSplit       int     `json:"keys_split"`
	SplitReconciles int     `json:"split_reconciles"`
	// Invariant records the workload checker's verdict; runs never
	// publish a row that failed (the sweep errors out), so committed
	// artifacts always read "ok".
	Invariant string `json:"invariant"`
}

// appsCoverage is the artifact's audit block.
type appsCoverage struct {
	RawCells     int                 `json:"raw_cells"`
	ValidCells   int                 `json:"valid_cells"`
	Selected     int                 `json:"selected_cells"`
	Excluded     map[string]int      `json:"excluded"`
	PairsTotal   int                 `json:"pairs_total"`
	PairsCovered int                 `json:"pairs_covered"`
	AxisValues   map[string][]string `json:"axis_values"`
}

// appsReport is the top-level JSON artifact.
type appsReport struct {
	SchemaVersion int            `json:"schema_version"`
	Experiment    string         `json:"experiment"`
	Coverage      appsCoverage   `json:"coverage"`
	Scenarios     []appsScenario `json:"scenarios"`
}

// buildAppsWorkload maps a cell to its workload instance. The zipf
// axis steers key popularity in all three (item popularity for the
// application workloads); txn and cross only shape KV.
func buildAppsWorkload(c workload.Cell, opt appsOptions) (workload.Workload, error) {
	zipf, err := strconv.ParseFloat(c["zipf"], 64)
	if err != nil {
		return nil, fmt.Errorf("bad zipf %q: %w", c["zipf"], err)
	}
	switch c["workload"] {
	case "kv":
		txnSize, err := strconv.Atoi(c["txn"])
		if err != nil {
			return nil, fmt.Errorf("bad txn %q: %w", c["txn"], err)
		}
		cross, err := strconv.ParseFloat(c["cross"], 64)
		if err != nil {
			return nil, fmt.Errorf("bad cross %q: %w", c["cross"], err)
		}
		dpus, err := strconv.Atoi(c["dpus"])
		if err != nil {
			return nil, fmt.Errorf("bad dpus %q: %w", c["dpus"], err)
		}
		return workload.NewKV(host.TrafficConfig{
			Ops: opt.Txns, Rate: opt.Rate, ReadPct: opt.ReadPct,
			Keyspace: opt.Keyspace, ZipfS: zipf, Seed: opt.Seed,
			TxnSize: txnSize, CrossDPU: cross, DPUs: dpus,
		}), nil
	case "neworder":
		return workload.NewNewOrder(workload.NewOrderConfig{
			Txns: opt.Txns, Rate: opt.Rate, Seed: opt.Seed, ItemZipfS: zipf,
		})
	case "auction":
		// Funds sized so eager bidders run dry mid-trace: the guard
		// abort path must show up in the artifact, not just in tests.
		return workload.NewAuction(workload.AuctionConfig{
			Txns: opt.Txns, Rate: opt.Rate, Seed: opt.Seed, ItemZipfS: zipf,
			InitialFunds: 40, BidFrac: 0.4,
		})
	default:
		return nil, fmt.Errorf("unknown workload %q", c["workload"])
	}
}

// runAppsCell serves one cell and proves its invariant.
func runAppsCell(m workload.Matrix, c workload.Cell, opt appsOptions) (appsScenario, error) {
	w, err := buildAppsWorkload(c, opt)
	if err != nil {
		return appsScenario{}, err
	}
	dpus, err := strconv.Atoi(c["dpus"])
	if err != nil {
		return appsScenario{}, fmt.Errorf("bad dpus %q: %w", c["dpus"], err)
	}
	alg, err := core.ParseAlgorithm(c["stm"])
	if err != nil {
		return appsScenario{}, err
	}
	factory, err := newServeScheduler(c["sched"], opt.MaxBatch, opt.MaxDelaySeconds)
	if err != nil {
		return appsScenario{}, err
	}
	policy := c["place"]
	if policy == "static" {
		policy = "none"
	}
	placement, reb, err := policyRebalance(policy, dpus, rebalanceOptions{WindowBatches: 3})
	if err != nil {
		return appsScenario{}, err
	}
	trace, err := w.Generate()
	if err != nil {
		return appsScenario{}, err
	}
	res, err := host.Serve(host.ServeConfig{
		Map: host.PartitionedMapConfig{
			DPUs: dpus, Tasklets: opt.Tasklets,
			STM: core.Config{Algorithm: alg}, Mode: host.Pipelined,
			Placement:       placement,
			HostParallelism: opt.Parallelism,
		},
		Submit: host.SubmitterConfig{
			MaxBatch:        opt.MaxBatch,
			MaxDelaySeconds: opt.MaxDelaySeconds,
		},
		Rebalance:   reb,
		Scheduler:   factory,
		Trace:       trace,
		Preload:     w.Preload(),
		KeepResults: true,
	})
	if err != nil {
		return appsScenario{}, err
	}
	if res.Errors > 0 {
		return appsScenario{}, fmt.Errorf("%d/%d txns errored", res.Errors, res.Txns)
	}
	if res.Stats.GuardAborts != res.Aborted {
		return appsScenario{}, fmt.Errorf("guard-abort accounting drifted: stats %d, outcomes %d",
			res.Stats.GuardAborts, res.Aborted)
	}
	if err := w.Check(res.Store.Get, res.Results); err != nil {
		return appsScenario{}, fmt.Errorf("invariant: %w", err)
	}
	axes := map[string]string{}
	for k, v := range c {
		axes[k] = v
	}
	return appsScenario{
		Cell: m.CellID(c), Axes: axes,
		Txns: res.Txns, Ops: res.Ops,
		Aborted: res.Aborted, GuardAborts: res.Stats.GuardAborts,
		CoordinatedTxns: res.CoordinatedTxns, Batches: res.Batches,
		OpsPerSecond: res.OpsPerSecond,
		P50Seconds:   res.P50, P95Seconds: res.P95, P99Seconds: res.P99,
		Makespan:     res.MakespanSeconds,
		KeysMigrated: res.Rebalance.KeysMigrated, KeysSplit: res.Rebalance.KeysSplit,
		SplitReconciles: res.SplitReconciles,
		Invariant:       "ok",
	}, nil
}

// runApps expands the matrix, serves every selected cell, renders the
// table to w, and writes BENCH_apps.json when opt.Out is set.
func runApps(opt appsOptions, out io.Writer) ([]appsScenario, error) {
	opt.fill()
	m := appsMatrix(opt.MinCells)
	cells, cov, err := m.Expand(opt.Seed)
	if err != nil {
		return nil, err
	}
	scenarios := make([]appsScenario, 0, len(cells))
	for _, c := range cells {
		sc, err := runAppsCell(m, c, opt)
		if err != nil {
			return nil, fmt.Errorf("apps cell %s: %w", m.CellID(c), err)
		}
		scenarios = append(scenarios, sc)
	}

	fmt.Fprintf(out, "== apps: application-workload scenario matrix (%d of %d valid cells, %d/%d axis pairs, %d txns/cell) ==\n",
		cov.Selected, cov.ValidCells, cov.PairsCovered, cov.PairsTotal, opt.Txns)
	fmt.Fprintln(out, hostParHeader(opt.Parallelism))
	fmt.Fprintf(out, "%-9s %5s %5s %4s %6s %-5s %-8s %-10s %7s %7s %12s %12s %5s\n",
		"workload", "#DPUs", "zipf", "txn", "cross", "sched", "place", "stm", "abort", "guard", "ops/s", "p99 ms", "inv")
	for _, sc := range scenarios {
		fmt.Fprintf(out, "%-9s %5s %5s %4s %6s %-5s %-8s %-10s %7d %7d %12.0f %12.3f %5s\n",
			sc.Axes["workload"], sc.Axes["dpus"], sc.Axes["zipf"], sc.Axes["txn"], sc.Axes["cross"],
			sc.Axes["sched"], sc.Axes["place"], sc.Axes["stm"],
			sc.Aborted, sc.GuardAborts, sc.OpsPerSecond, sc.P99Seconds*1e3, sc.Invariant)
	}

	if opt.Out != "" {
		blob, err := json.MarshalIndent(appsReport{
			SchemaVersion: 1,
			Experiment:    "apps",
			Coverage: appsCoverage{
				RawCells: cov.RawCells, ValidCells: cov.ValidCells, Selected: cov.Selected,
				Excluded:   cov.Excluded,
				PairsTotal: cov.PairsTotal, PairsCovered: cov.PairsCovered,
				AxisValues: cov.AxisValues,
			},
			Scenarios: scenarios,
		}, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(opt.Out, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "wrote %s (%d scenarios)\n", opt.Out, len(scenarios))
	}
	return scenarios, nil
}
