package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pimstm/internal/core"
	"pimstm/internal/host"
)

// serveOptions parameterize the adaptive-batching serving sweep: fleet
// size × STM algorithm × key-popularity skew × open-loop arrival rate,
// each cell served through a host.Submitter in both transfer modes.
type serveOptions struct {
	// Fleets lists the DPU counts to sweep.
	Fleets []int
	// Algs are the intra-DPU STM algorithms to compare.
	Algs []core.Algorithm
	// Skews are Zipf key-popularity exponents (0 = uniform).
	Skews []float64
	// Rates are open-loop arrival rates in ops per modeled second.
	Rates []float64
	// ReadPct of the traffic is Gets.
	ReadPct int
	// Ops per scenario and the Keyspace they draw from.
	Ops, Keyspace int
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

func (o *serveOptions) fill() {
	if len(o.Fleets) == 0 {
		o.Fleets = []int{1, 8}
	}
	if len(o.Algs) == 0 {
		o.Algs = []core.Algorithm{core.NOrec, core.TinyETLWB}
	}
	if len(o.Skews) == 0 {
		o.Skews = []float64{0, 1.2}
	}
	if len(o.Rates) == 0 {
		o.Rates = []float64{4e4, 2e5}
	}
	// ReadPct 0 is a legitimate write-only workload: the 90% default
	// comes from the -serve-reads flag, not from here.
	if o.Ops == 0 {
		o.Ops = 1200
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

// serveModeResult is one transfer mode's modeled outcome of a cell.
type serveModeResult struct {
	OpsPerSecond float64 `json:"ops_per_s"`
	P50Seconds   float64 `json:"p50_s"`
	P95Seconds   float64 `json:"p95_s"`
	P99Seconds   float64 `json:"p99_s"`
	Batches      int     `json:"batches"`
	MeanBatchOps float64 `json:"mean_batch_ops"`
	Makespan     float64 `json:"makespan_s"`
}

// serveScenario is one machine-readable cell of BENCH_serve.json.
type serveScenario struct {
	DPUs            int             `json:"dpus"`
	Algorithm       string          `json:"algorithm"`
	ReadPct         int             `json:"read_pct"`
	ZipfS           float64         `json:"zipf_s"`
	RatePerSecond   float64         `json:"rate_ops_per_s"`
	Ops             int             `json:"ops"`
	MaxBatch        int             `json:"max_batch"`
	MaxDelaySeconds float64         `json:"max_delay_s"`
	Pipelined       serveModeResult `json:"pipelined"`
	Lockstep        serveModeResult `json:"lockstep"`
	// P99Gain is lockstep p99 over pipelined p99 (> 1 = pipelining
	// shortens the modeled tail).
	P99Gain float64 `json:"p99_gain"`
}

// serveReport is the top-level JSON artifact.
type serveReport struct {
	SchemaVersion int             `json:"schema_version"`
	Experiment    string          `json:"experiment"`
	Scenarios     []serveScenario `json:"scenarios"`
}

// runServeCell serves one cell's trace in both transfer modes.
func runServeCell(dpus int, alg core.Algorithm, skew, rate float64, opt serveOptions) (serveScenario, error) {
	mode := func(m host.ExecMode) (host.ServeResult, error) {
		return host.Serve(host.ServeConfig{
			Map: host.PartitionedMapConfig{
				DPUs: dpus, Tasklets: opt.Tasklets,
				STM: core.Config{Algorithm: alg}, Mode: m,
				HostParallelism: opt.Parallelism,
			},
			Submit: host.SubmitterConfig{
				MaxBatch:        opt.MaxBatch,
				MaxDelaySeconds: opt.MaxDelaySeconds,
			},
			Traffic: host.TrafficConfig{
				Ops: opt.Ops, Rate: rate, ReadPct: opt.ReadPct,
				Keyspace: opt.Keyspace, ZipfS: skew, Seed: opt.Seed,
			},
		})
	}
	pipe, err := mode(host.Pipelined)
	if err != nil {
		return serveScenario{}, err
	}
	lock, err := mode(host.Lockstep)
	if err != nil {
		return serveScenario{}, err
	}
	if pipe.Errors > 0 || lock.Errors > 0 {
		return serveScenario{}, fmt.Errorf("%d/%d ops errored", pipe.Errors+lock.Errors, 2*opt.Ops)
	}
	pack := func(r host.ServeResult) serveModeResult {
		return serveModeResult{
			OpsPerSecond: r.OpsPerSecond,
			P50Seconds:   r.P50, P95Seconds: r.P95, P99Seconds: r.P99,
			Batches: r.Batches, MeanBatchOps: r.MeanBatchOps,
			Makespan: r.MakespanSeconds,
		}
	}
	sc := serveScenario{
		DPUs: dpus, Algorithm: alg.String(), ReadPct: opt.ReadPct,
		ZipfS: skew, RatePerSecond: rate, Ops: opt.Ops,
		MaxBatch: opt.MaxBatch, MaxDelaySeconds: opt.MaxDelaySeconds,
		Pipelined: pack(pipe), Lockstep: pack(lock),
	}
	if pipe.P99 > 0 {
		sc.P99Gain = lock.P99 / pipe.P99
	}
	return sc, nil
}

// runServe sweeps fleet × algorithm × skew × rate, renders the table
// to w, and writes BENCH_serve.json when opt.Out is set.
func runServe(opt serveOptions, w io.Writer) ([]serveScenario, error) {
	opt.fill()
	var scenarios []serveScenario
	for _, n := range opt.Fleets {
		for _, alg := range opt.Algs {
			for _, skew := range opt.Skews {
				for _, rate := range opt.Rates {
					sc, err := runServeCell(n, alg, skew, rate, opt)
					if err != nil {
						return nil, fmt.Errorf("serve %d DPUs %v zipf %g rate %g: %w", n, alg, skew, rate, err)
					}
					scenarios = append(scenarios, sc)
				}
			}
		}
	}

	fmt.Fprintf(w, "== serve: adaptive-batching open-loop sweep (%d ops/cell, batch ≤ %d, delay ≤ %.0f µs) ==\n",
		opt.Ops, opt.MaxBatch, opt.MaxDelaySeconds*1e6)
	fmt.Fprintln(w, hostParHeader(opt.Parallelism))
	fmt.Fprintf(w, "%6s %-12s %5s %9s %12s %12s %12s %12s %7s\n",
		"#DPUs", "STM", "zipf", "rate/s", "pipe ops/s", "pipe p50 ms", "pipe p99 ms", "lock p99 ms", "gain")
	for _, sc := range scenarios {
		fmt.Fprintf(w, "%6d %-12s %5.2f %9.0f %12.0f %12.3f %12.3f %12.3f %6.2fx\n",
			sc.DPUs, sc.Algorithm, sc.ZipfS, sc.RatePerSecond,
			sc.Pipelined.OpsPerSecond, sc.Pipelined.P50Seconds*1e3,
			sc.Pipelined.P99Seconds*1e3, sc.Lockstep.P99Seconds*1e3, sc.P99Gain)
	}

	if opt.Out != "" {
		blob, err := json.MarshalIndent(serveReport{
			SchemaVersion: 1,
			Experiment:    "serve",
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
