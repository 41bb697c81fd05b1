package main

import (
	"fmt"

	"pimstm/internal/host"
	"pimstm/internal/workload"
)

// serveSweep serves open-loop traffic through the adaptive
// host.Submitter in both transfer modes: fleet size × STM algorithm ×
// key-popularity skew × arrival rate.
var serveSweep = &sweep[serveScenario]{
	name:   "serve",
	title:  "adaptive-batching open-loop sweep",
	schema: 1,
	axes: []axis{
		{"dpus", "1,8", isInt},
		{"stm", "norec,tinyetlwb", isAlg},
		{"zipf", "0,1.2", isFloat},
		{"rate", "40000,200000", isFloat},
	},
	knobs: []axis{
		{"ops", "1200", isInt},
		{"keys", "512", isInt},
		{"batch", "64", isInt},
	},
	fixed: workload.Cell{"reads": "90", "delay_s": "300e-6", "tasklets": "8", "seed": "1"},
	cell:  runServeCell,
	columns: fmt.Sprintf("%6s %-12s %5s %9s %12s %12s %12s %12s %7s",
		"#DPUs", "STM", "zipf", "rate/s", "pipe ops/s", "pipe p50 ms", "pipe p99 ms", "lock p99 ms", "gain"),
	row: func(sc serveScenario) string {
		return fmt.Sprintf("%6d %-12s %5.2f %9.0f %12.0f %12.3f %12.3f %12.3f %6.2fx",
			sc.DPUs, sc.Algorithm, sc.ZipfS, sc.RatePerSecond,
			sc.Pipelined.OpsPerSecond, sc.Pipelined.P50Seconds*1e3,
			sc.Pipelined.P99Seconds*1e3, sc.Lockstep.P99Seconds*1e3, sc.P99Gain)
	},
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

// runServeCell serves one cell's trace in both transfer modes.
func runServeCell(_ workload.Matrix, c workload.Cell, par int) (serveScenario, error) {
	cfg, err := serveConfig(c, par)
	if err != nil {
		return serveScenario{}, err
	}
	pipe, err := host.Serve(cfg)
	if err != nil {
		return serveScenario{}, err
	}
	cfg.Map.Mode = host.Lockstep
	lock, err := host.Serve(cfg)
	if err != nil {
		return serveScenario{}, err
	}
	if pipe.Errors > 0 || lock.Errors > 0 {
		return serveScenario{}, fmt.Errorf("%d/%d ops errored", pipe.Errors+lock.Errors, 2*cfg.Traffic.Ops)
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
		DPUs: cfg.Map.DPUs, Algorithm: cfg.Map.STM.Algorithm.String(), ReadPct: cfg.Traffic.ReadPct,
		ZipfS: cfg.Traffic.ZipfS, RatePerSecond: cfg.Traffic.Rate, Ops: cfg.Traffic.Ops,
		MaxBatch: cfg.Submit.MaxBatch, MaxDelaySeconds: cfg.Submit.MaxDelaySeconds,
		Pipelined: pack(pipe), Lockstep: pack(lock),
	}
	if pipe.P99 > 0 {
		sc.P99Gain = lock.P99 / pipe.P99
	}
	return sc, nil
}
