package main

import (
	"fmt"

	"pimstm/internal/core"
	"pimstm/internal/host"
	"pimstm/internal/workload"
)

// multiDPUSweep streams a partitioned-KV serving load through the
// host.Fleet pipeline: fleet size × STM algorithm × read/write mix, each
// cell reporting pipelined against lockstep modeled wall-clock.
var multiDPUSweep = &sweep[multiDPUScenario]{
	name:   "multidpu",
	title:  "fleet serving sweep, pipelined vs lockstep",
	schema: 1,
	axes: []axis{
		{"dpus", "1,8,64", isInt},
		{"stm", "norec,tinyetlwb,vretlwb", isAlg},
		{"reads", "90,50", isInt},
	},
	knobs: []axis{
		{"batches", "6", isInt},
		{"ops", "256", isInt},
		{"tasklets", "11", isInt},
	},
	cell: runMultiDPUCell,
	columns: fmt.Sprintf("%6s %-12s %6s %14s %14s %8s %14s",
		"#DPUs", "STM", "reads", "pipelined ms", "lockstep ms", "gain", "ops/s"),
	row: func(sc multiDPUScenario) string {
		return fmt.Sprintf("%6d %-12s %5d%% %14.3f %14.3f %7.2fx %14.0f",
			sc.DPUs, sc.Algorithm, sc.ReadPct,
			sc.PipelinedSeconds*1e3, sc.LockstepSeconds*1e3, sc.PipelineGain, sc.OpsPerSecond)
	},
}

// multiDPUScenario is one machine-readable cell of BENCH_multidpu.json.
type multiDPUScenario struct {
	DPUs             int     `json:"dpus"`
	Algorithm        string  `json:"algorithm"`
	ReadPct          int     `json:"read_pct"`
	Batches          int     `json:"batches"`
	OpsPerBatch      int     `json:"ops_per_batch"`
	PipelinedSeconds float64 `json:"pipelined_seconds"`
	LockstepSeconds  float64 `json:"lockstep_seconds"`
	PipelineGain     float64 `json:"pipeline_gain"`
	LaunchSeconds    float64 `json:"launch_seconds"`
	TransferSeconds  float64 `json:"transfer_seconds"`
	QuiescentSeconds float64 `json:"quiescent_seconds"`
	OpsPerSecond     float64 `json:"ops_per_s"`
}

// runMultiDPUCell streams the serving workload of one sweep cell
// through a pipelined PartitionedMap and reports its modeled timing
// (the fleet tracks the lockstep-equivalent cost alongside, so one run
// yields both sides of the comparison).
func runMultiDPUCell(_ workload.Matrix, c workload.Cell, par int) (multiDPUScenario, error) {
	dpus, readPct := intAt(c, "dpus"), intAt(c, "reads")
	batches, opsPerBatch := intAt(c, "batches"), intAt(c, "ops")
	alg, err := core.ParseAlgorithm(c["stm"])
	if err != nil {
		return multiDPUScenario{}, err
	}
	keyspace := 2 * opsPerBatch
	pm, err := host.NewPartitionedMap(host.PartitionedMapConfig{
		DPUs: dpus, Buckets: 256, Capacity: 2 * keyspace, Tasklets: intAt(c, "tasklets"),
		STM: core.Config{Algorithm: alg}, Mode: host.Pipelined,
		HostParallelism: par,
	})
	if err != nil {
		return multiDPUScenario{}, err
	}

	// Load phase: populate the keyspace in one batch.
	ops := make([]host.Op, keyspace)
	for k := range ops {
		ops[k] = host.Op{Kind: host.OpPut, Key: uint64(k), Value: uint64(k)}
	}
	if _, err := pm.ApplyBatch(ops); err != nil {
		return multiDPUScenario{}, err
	}
	loaded := pm.Stats() // baseline, so the cell reports serving time only

	// Serving phase: Batches mixed batches streamed back to back
	// through the pipeline.
	rng := host.Rand64(uint64(dpus)*1e9 + uint64(readPct)*31 + 1)
	next := rng.Next
	total := 0
	for b := 0; b < batches; b++ {
		ops = ops[:0]
		for i := 0; i < opsPerBatch; i++ {
			key := next() % uint64(keyspace)
			if int(next()%100) < readPct {
				ops = append(ops, host.Op{Kind: host.OpGet, Key: key})
			} else {
				ops = append(ops, host.Op{Kind: host.OpPut, Key: key, Value: next()})
			}
		}
		res, err := pm.ApplyBatch(ops)
		if err != nil {
			return multiDPUScenario{}, err
		}
		for i, r := range res {
			if r.Err != nil {
				return multiDPUScenario{}, fmt.Errorf("batch %d op %d: %w", b, i, r.Err)
			}
		}
		total += len(ops)
	}

	// Report the serving phase alone: the cumulative fleet stats minus
	// the load-phase baseline, so ops_per_s and the pipeline gain
	// describe exactly the batches × ops_per_batch sweep of the cell.
	s := pm.Stats()
	wall := s.WallSeconds - loaded.WallSeconds
	lockstep := s.LockstepSeconds - loaded.LockstepSeconds
	launch := s.LaunchSeconds - loaded.LaunchSeconds
	return multiDPUScenario{
		DPUs:             dpus,
		Algorithm:        alg.String(),
		ReadPct:          readPct,
		Batches:          batches,
		OpsPerBatch:      opsPerBatch,
		PipelinedSeconds: wall,
		LockstepSeconds:  lockstep,
		PipelineGain:     lockstep / wall,
		LaunchSeconds:    launch,
		TransferSeconds:  s.TransferSeconds - loaded.TransferSeconds,
		QuiescentSeconds: wall - launch,
		OpsPerSecond:     float64(total) / wall,
	}, nil
}
