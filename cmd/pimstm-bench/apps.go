package main

import (
	"fmt"

	"pimstm/internal/host"
	"pimstm/internal/workload"
)

// appsSweep is the application-workload scenario matrix: it declares
// the axes (workload × fleet × skew × txn shape × cross fraction ×
// scheduler × placement policy × STM algorithm) and the exclusion
// predicates that carve out meaningless cells, and runs a seeded
// pairwise-covering cell set padded to min_cells. Every cell serves a
// deterministic application trace (KV, TPC-C-style NewOrder,
// RUBiS-style Auction) through the full serving stack and then proves
// the workload's conservation invariant against the served store — a
// benchmark run that silently corrupts state fails loudly instead of
// publishing numbers.
//
// The predicates encode the harness's real constraints: transaction-
// shape and cross-DPU knobs only exist on the synthetic KV generator,
// cross-DPU and non-static placement need a fleet, and the split
// policy is pointless on read-mostly KV traffic (the application
// workloads are the ones with commutative hot counters).
var appsSweep = &sweep[appsScenario]{
	name:   "apps",
	title:  "application-workload scenario matrix",
	schema: 1,
	axes: []axis{
		{"workload", "kv,neworder,auction", oneOf("kv", "neworder", "auction")},
		{"dpus", "1,4,8", isInt},
		{"zipf", "0,1.1", isFloat},
		{"txn", "1,3", isInt},
		{"cross", "0,0.5", isFloat},
		{"sched", "fifo,lane", isSched},
		{"place", "static,migrate,split", isPolicy},
		{"stm", "norec,tinyetlwb", isAlg},
	},
	knobs: []axis{
		{"txns", "400", isInt},
		{"min_cells", "32", isInt},
	},
	fixed: workload.Cell{
		"rate": "2e5", "keys": "128", "reads": "80",
		"batch": "48", "delay_s": "300e-6", "tasklets": "4",
		"window": "3", "seed": "1",
	},
	predicates: []predicate{
		{"txn-shaping-is-kv-only", func(c, _ workload.Cell) bool {
			return c["txn"] != "1" && c["workload"] != "kv"
		}},
		{"cross-needs-multiop-multidpu-kv", func(c, _ workload.Cell) bool {
			return c["cross"] != "0" && (c["workload"] != "kv" || c["txn"] == "1" || intAt(c, "dpus") < 2)
		}},
		{"placement-needs-multidpu", func(c, _ workload.Cell) bool {
			return c["place"] != "static" && intAt(c, "dpus") < 2
		}},
		{"split-needs-rmw-traffic", func(c, _ workload.Cell) bool {
			return c["place"] == "split" && c["workload"] == "kv"
		}},
	},
	cover: true,
	cell:  runAppsCell,
	columns: fmt.Sprintf("%-9s %5s %5s %4s %6s %-5s %-8s %-10s %7s %7s %12s %12s %5s",
		"workload", "#DPUs", "zipf", "txn", "cross", "sched", "place", "stm", "abort", "guard", "ops/s", "p99 ms", "inv"),
	row: func(sc appsScenario) string {
		return fmt.Sprintf("%-9s %5s %5s %4s %6s %-5s %-8s %-10s %7d %7d %12.0f %12.3f %5s",
			sc.Axes["workload"], sc.Axes["dpus"], sc.Axes["zipf"], sc.Axes["txn"], sc.Axes["cross"],
			sc.Axes["sched"], sc.Axes["place"], sc.Axes["stm"],
			sc.Aborted, sc.GuardAborts, sc.OpsPerSecond, sc.P99Seconds*1e3, sc.Invariant)
	},
	report: func(res sweepResult[appsScenario]) (any, error) {
		cov := res.cov
		return appsReport{
			SchemaVersion: 1,
			Experiment:    "apps",
			Coverage: appsCoverage{
				RawCells: cov.RawCells, ValidCells: cov.ValidCells, Selected: cov.Selected,
				Excluded:   cov.Excluded,
				PairsTotal: cov.PairsTotal, PairsCovered: cov.PairsCovered,
				AxisValues: cov.AxisValues,
			},
			Scenarios: res.rows,
		}, nil
	},
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
// application workloads); txn and cross only shape KV, whose traffic is
// the cell's own.
func buildAppsWorkload(c workload.Cell, traffic host.TrafficConfig) (workload.Workload, error) {
	switch c["workload"] {
	case "kv":
		return workload.NewKV(traffic), nil
	case "neworder":
		return workload.NewNewOrder(workload.NewOrderConfig{
			Txns: traffic.Ops, Rate: traffic.Rate, Seed: traffic.Seed, ItemZipfS: traffic.ZipfS,
		})
	case "auction":
		// Funds sized so eager bidders run dry mid-trace: the guard
		// abort path must show up in the artifact, not just in tests.
		return workload.NewAuction(workload.AuctionConfig{
			Txns: traffic.Ops, Rate: traffic.Rate, Seed: traffic.Seed, ItemZipfS: traffic.ZipfS,
			InitialFunds: 40, BidFrac: 0.4,
		})
	default:
		return nil, fmt.Errorf("unknown workload %q", c["workload"])
	}
}

// runAppsCell serves one cell and proves its invariant.
func runAppsCell(m workload.Matrix, c workload.Cell, par int) (appsScenario, error) {
	cfg, err := serveConfig(c, par)
	if err != nil {
		return appsScenario{}, err
	}
	cfg.Traffic.Ops, cfg.Traffic.DPUs = intAt(c, "txns"), cfg.Map.DPUs
	w, err := buildAppsWorkload(c, cfg.Traffic)
	if err != nil {
		return appsScenario{}, err
	}
	if cfg.Trace, err = w.Generate(); err != nil {
		return appsScenario{}, err
	}
	// The trace replaces generated traffic, and the store sizes itself
	// from the workload's preload.
	cfg.Traffic = host.TrafficConfig{}
	cfg.Preload, cfg.KeepResults = w.Preload(), true
	res, err := host.Serve(cfg)
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
	for _, ax := range m.Axes {
		axes[ax.Name] = c[ax.Name]
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
