package main

import (
	"fmt"

	"pimstm/internal/host"
	"pimstm/internal/workload"
)

// txnServeSweep is the multi-key transactional serving sweep: fleet
// size × transaction size × cross-DPU fraction × skew × STM algorithm ×
// batch scheduler, each cell an open-loop trace of txns served through
// the transactional Submitter. The sweep charts
// the cost cliff the paper's single-DPU evaluation never measures —
// transactions confined to one DPU commit inside the batch kernel
// (STM-native atomicity), while cross-DPU transactions pay the
// CPU-coordinated snapshot and writeback rounds — and, on the
// scheduler axis, how much of the mixed-batch cliff lane-segregated
// batch formation closes.
var txnServeSweep = &sweep[txnServeScenario]{
	name:   "txnserve",
	title:  "multi-key transactional serving sweep",
	schema: 3,
	axes: []axis{
		{"sched", "fifo,lane", isSched},
		{"dpus", "2,8", isInt},
		{"stm", "norec", isAlg},
		{"txn", "1,2,4", isInt},
		// The extremes coalesce into two handshakes per batch either
		// way; the mixed fraction is where batches pay the execute
		// round plus both coordination rounds — the interesting cliff.
		{"cross", "0,0.5,1", isFloat},
		{"zipf", "0,1.2", isFloat},
	},
	knobs: []axis{
		{"txns", "500", isInt},
		{"keys", "512", isInt},
		{"batch", "64", isInt},
	},
	fixed: workload.Cell{"rate": "4e4", "reads": "80", "delay_s": "300e-6", "tasklets": "8", "seed": "1"},
	predicates: []predicate{
		{"single-op-txn-cannot-cross", func(c, _ workload.Cell) bool {
			return c["txn"] == "1" && floatAt(c, "cross") > 0
		}},
	},
	cell: runTxnServeCell,
	columns: fmt.Sprintf("%6s %-12s %-8s %5s %6s %5s %7s %12s %12s %12s",
		"#DPUs", "STM", "sched", "size", "cross", "zipf", "coord", "ops/s", "p50 ms", "p99 ms"),
	row: func(sc txnServeScenario) string {
		return fmt.Sprintf("%6d %-12s %-8s %5d %6.2f %5.2f %7d %12.0f %12.3f %12.3f",
			sc.DPUs, sc.Algorithm, sc.Scheduler, sc.TxnSize, sc.CrossDPU, sc.ZipfS,
			sc.CoordinatedTxns, sc.OpsPerSecond, sc.P50Seconds*1e3, sc.P99Seconds*1e3)
	},
}

// txnServeScenario is one machine-readable cell of BENCH_txnserve.json.
type txnServeScenario struct {
	DPUs               int     `json:"dpus"`
	Algorithm          string  `json:"algorithm"`
	Scheduler          string  `json:"scheduler"`
	TxnSize            int     `json:"txn_size"`
	CrossDPU           float64 `json:"cross_dpu_frac"`
	ZipfS              float64 `json:"zipf_s"`
	ReadPct            int     `json:"read_pct"`
	RatePerSecond      float64 `json:"rate_txns_per_s"`
	Txns               int     `json:"txns"`
	Ops                int     `json:"ops"`
	CoordinatedTxns    int     `json:"coordinated_txns"`
	Batches            int     `json:"batches"`
	ConfinedBatches    int     `json:"confined_batches"`
	CoordinatedBatches int     `json:"coordinated_batches"`
	OpsPerSecond       float64 `json:"ops_per_s"`
	P50Seconds         float64 `json:"p50_s"`
	P95Seconds         float64 `json:"p95_s"`
	P99Seconds         float64 `json:"p99_s"`
	Makespan           float64 `json:"makespan_s"`
	// Schema v3: the coordinated-commit phase split accumulated over the
	// cell's batches — prepare gathers, kernel apply-program cycles, and
	// writeback transfer time (all zero for cells that never coordinate).
	GatherSeconds    float64 `json:"gather_s"`
	ApplySeconds     float64 `json:"apply_s"`
	WritebackSeconds float64 `json:"writeback_s"`
}

// newServeScheduler maps a scheduler name to the factory the serve
// driver needs, parameterized on the sweep's batch bounds. The
// confined lane inherits them; the coordinated lane gets double the
// size and delay budget — its windows are pure handshake (no batch
// kernel), so fewer, fuller coordination rounds amortize strictly
// better, and the starvation bound still ships stragglers behind a
// confined flood. "fifo" returns nil: the Submitter's default path,
// untouched by the sched axis.
func newServeScheduler(name string, maxBatch int, maxDelaySeconds float64) (func() host.Scheduler, error) {
	lanes := host.LaneSchedulerConfig{
		Confined:    host.LaneConfig{MaxBatch: maxBatch, MaxDelaySeconds: maxDelaySeconds},
		Coordinated: host.LaneConfig{MaxBatch: 2 * maxBatch, MaxDelaySeconds: 2 * maxDelaySeconds},
	}
	switch name {
	case "fifo":
		return nil, nil
	case "lane":
		return func() host.Scheduler { return host.NewLaneScheduler(lanes) }, nil
	case "adaptive":
		return func() host.Scheduler { return host.NewAdaptiveScheduler(lanes, host.AdaptiveConfig{}) }, nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q (valid: fifo, lane, adaptive)", name)
	}
}

// runTxnServeCell serves one cell's transactional trace.
func runTxnServeCell(_ workload.Matrix, c workload.Cell, par int) (txnServeScenario, error) {
	cfg, err := serveConfig(c, par)
	if err != nil {
		return txnServeScenario{}, err
	}
	cfg.Traffic.Ops = intAt(c, "txns")
	res, err := host.Serve(cfg)
	if err != nil {
		return txnServeScenario{}, err
	}
	if res.Errors > 0 {
		return txnServeScenario{}, fmt.Errorf("%d/%d txns errored", res.Errors, res.Txns)
	}
	t := cfg.Traffic
	return txnServeScenario{
		DPUs: cfg.Map.DPUs, Algorithm: cfg.Map.STM.Algorithm.String(), Scheduler: c["sched"],
		TxnSize: t.TxnSize, CrossDPU: t.CrossDPU,
		ZipfS: t.ZipfS, ReadPct: t.ReadPct, RatePerSecond: t.Rate,
		Txns: res.Txns, Ops: res.Ops, CoordinatedTxns: res.CoordinatedTxns,
		Batches:         res.Batches,
		ConfinedBatches: res.Stats.ConfinedBatches, CoordinatedBatches: res.Stats.CoordinatedBatches,
		OpsPerSecond: res.OpsPerSecond,
		P50Seconds:   res.P50, P95Seconds: res.P95, P99Seconds: res.P99,
		Makespan:      res.MakespanSeconds,
		GatherSeconds: res.Stats.GatherSeconds, ApplySeconds: res.Stats.ApplySeconds,
		WritebackSeconds: res.Stats.WritebackSeconds,
	}, nil
}
