package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pimstm/internal/core"
	"pimstm/internal/host"
)

// txnServeOptions parameterize the multi-key transactional serving
// sweep: fleet size × transaction size × cross-DPU fraction × skew ×
// STM algorithm × batch scheduler, each cell an open-loop trace of
// Txns served through the transactional Submitter. The sweep charts
// the cost cliff the paper's single-DPU evaluation never measures —
// transactions confined to one DPU commit inside the batch kernel
// (STM-native atomicity), while cross-DPU transactions pay the
// CPU-coordinated snapshot and writeback rounds — and, on the
// scheduler axis, how much of the mixed-batch cliff lane-segregated
// batch formation closes.
type txnServeOptions struct {
	// Fleets lists the DPU counts to sweep.
	Fleets []int
	// Algs are the intra-DPU STM algorithms to compare.
	Algs []core.Algorithm
	// TxnSizes are the ops-per-transaction points.
	TxnSizes []int
	// CrossFracs are the cross-DPU transaction fractions (0..1).
	CrossFracs []float64
	// Skews are Zipf key-popularity exponents (0 = uniform).
	Skews []float64
	// Scheds are the batch schedulers to compare ("fifo", "lane",
	// "adaptive").
	Scheds []string
	// Rate is the open-loop arrival rate in transactions per modeled
	// second.
	Rate float64
	// ReadPct of the traffic is Gets.
	ReadPct int
	// Txns per scenario and the Keyspace they draw from.
	Txns, Keyspace int
	// MaxBatch and MaxDelaySeconds tune the adaptive batcher.
	MaxBatch        int
	MaxDelaySeconds float64
	// Tasklets is the intra-DPU parallelism; Seed the traffic seed.
	Tasklets int
	Seed     uint64
	// Parallelism is the host-side worker-pool setting (0 = GOMAXPROCS,
	// N = N workers).
	Parallelism int
	// Out is the JSON artifact path ("" = don't write).
	Out string
}

func (o *txnServeOptions) fill() {
	if len(o.Fleets) == 0 {
		o.Fleets = []int{2, 8}
	}
	if len(o.Algs) == 0 {
		o.Algs = []core.Algorithm{core.NOrec}
	}
	if len(o.TxnSizes) == 0 {
		o.TxnSizes = []int{1, 2, 4}
	}
	if len(o.CrossFracs) == 0 {
		// The extremes coalesce into two handshakes per batch either
		// way; the mixed fraction is where batches pay the execute
		// round plus both coordination rounds — the interesting cliff.
		o.CrossFracs = []float64{0, 0.5, 1}
	}
	if len(o.Skews) == 0 {
		o.Skews = []float64{0, 1.2}
	}
	if len(o.Scheds) == 0 {
		o.Scheds = []string{"fifo", "lane"}
	}
	if o.Rate == 0 {
		o.Rate = 4e4
	}
	if o.ReadPct == 0 {
		o.ReadPct = 80
	}
	if o.Txns == 0 {
		o.Txns = 500
	}
	if o.Keyspace == 0 {
		o.Keyspace = 512
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 64
	}
	if o.MaxDelaySeconds == 0 {
		o.MaxDelaySeconds = 300e-6
	}
	if o.Tasklets == 0 {
		o.Tasklets = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
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

// txnServeReport is the top-level JSON artifact.
type txnServeReport struct {
	SchemaVersion int                `json:"schema_version"`
	Experiment    string             `json:"experiment"`
	Scenarios     []txnServeScenario `json:"scenarios"`
}

// newServeScheduler maps a scheduler name to the factory the serve
// driver needs, parameterized on the sweep's batch bounds. The
// confined lane inherits them; the coordinated lane gets double the
// size and delay budget — its windows are pure handshake (no batch
// kernel), so fewer, fuller coordination rounds amortize strictly
// better, and the starvation bound still ships stragglers behind a
// confined flood. "fifo" returns nil: the Submitter's default path,
// untouched by the scheduler flag.
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
func runTxnServeCell(dpus int, alg core.Algorithm, sched string, size int, cross, skew float64, opt txnServeOptions) (txnServeScenario, error) {
	factory, err := newServeScheduler(sched, opt.MaxBatch, opt.MaxDelaySeconds)
	if err != nil {
		return txnServeScenario{}, err
	}
	res, err := host.Serve(host.ServeConfig{
		Map: host.PartitionedMapConfig{
			DPUs: dpus, Tasklets: opt.Tasklets,
			STM: core.Config{Algorithm: alg}, Mode: host.Pipelined,
			HostParallelism: opt.Parallelism,
		},
		Submit: host.SubmitterConfig{
			MaxBatch:        opt.MaxBatch,
			MaxDelaySeconds: opt.MaxDelaySeconds,
		},
		Traffic: host.TrafficConfig{
			Ops: opt.Txns, Rate: opt.Rate, ReadPct: opt.ReadPct,
			Keyspace: opt.Keyspace, ZipfS: skew, Seed: opt.Seed,
			TxnSize: size, CrossDPU: cross,
		},
		Scheduler: factory,
	})
	if err != nil {
		return txnServeScenario{}, err
	}
	if res.Errors > 0 {
		return txnServeScenario{}, fmt.Errorf("%d/%d txns errored", res.Errors, res.Txns)
	}
	return txnServeScenario{
		DPUs: dpus, Algorithm: alg.String(), Scheduler: sched,
		TxnSize: size, CrossDPU: cross,
		ZipfS: skew, ReadPct: opt.ReadPct, RatePerSecond: opt.Rate,
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

// runTxnServe sweeps scheduler × fleet × txn size × cross fraction ×
// skew × algorithm, renders the table to w, and writes
// BENCH_txnserve.json when opt.Out is set. Single-op cells never cross
// DPUs, so only the zero cross fraction is run for them.
func runTxnServe(opt txnServeOptions, w io.Writer) ([]txnServeScenario, error) {
	opt.fill()
	var scenarios []txnServeScenario
	for _, sched := range opt.Scheds {
		for _, n := range opt.Fleets {
			for _, alg := range opt.Algs {
				for _, size := range opt.TxnSizes {
					for _, cross := range opt.CrossFracs {
						if size == 1 && cross > 0 {
							continue // a 1-op txn cannot span DPUs
						}
						for _, skew := range opt.Skews {
							sc, err := runTxnServeCell(n, alg, sched, size, cross, skew, opt)
							if err != nil {
								return nil, fmt.Errorf("txnserve %s %d DPUs %v size %d cross %g zipf %g: %w",
									sched, n, alg, size, cross, skew, err)
							}
							scenarios = append(scenarios, sc)
						}
					}
				}
			}
		}
	}

	fmt.Fprintf(w, "== txnserve: multi-key transactional serving sweep (%d txns/cell, %.0f txns/s open loop, batch ≤ %d ops) ==\n",
		opt.Txns, opt.Rate, opt.MaxBatch)
	fmt.Fprintln(w, hostParHeader(opt.Parallelism))
	fmt.Fprintf(w, "%6s %-12s %-8s %5s %6s %5s %7s %12s %12s %12s\n",
		"#DPUs", "STM", "sched", "size", "cross", "zipf", "coord", "ops/s", "p50 ms", "p99 ms")
	for _, sc := range scenarios {
		fmt.Fprintf(w, "%6d %-12s %-8s %5d %6.2f %5.2f %7d %12.0f %12.3f %12.3f\n",
			sc.DPUs, sc.Algorithm, sc.Scheduler, sc.TxnSize, sc.CrossDPU, sc.ZipfS,
			sc.CoordinatedTxns, sc.OpsPerSecond, sc.P50Seconds*1e3, sc.P99Seconds*1e3)
	}

	if opt.Out != "" {
		blob, err := json.MarshalIndent(txnServeReport{
			SchemaVersion: 3,
			Experiment:    "txnserve",
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
