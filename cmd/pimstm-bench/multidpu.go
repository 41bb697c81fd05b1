package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"pimstm/internal/core"
	"pimstm/internal/host"
)

// multiDPUOptions parameterize the multi-DPU serving sweep: fleet size
// × STM algorithm × read/write mix, every cell run through the
// host.Fleet pipeline on the partitioned KV store.
type multiDPUOptions struct {
	// Fleets lists the DPU counts to sweep (acceptance floor: ≥ {1, 8, 64}).
	Fleets []int
	// Algs are the intra-DPU STM algorithms to compare.
	Algs []core.Algorithm
	// ReadPcts lists the read percentages of the mixed batches.
	ReadPcts []int
	// Batches and OpsPerBatch shape the streamed serving load.
	Batches, OpsPerBatch int
	// Tasklets is the intra-DPU parallelism.
	Tasklets int
	// Parallelism is the host-side worker-pool setting (0 = GOMAXPROCS,
	// N = N workers).
	Parallelism int
	// Out is the JSON artifact path ("" = don't write).
	Out string
}

func (o *multiDPUOptions) fill() {
	if len(o.Fleets) == 0 {
		o.Fleets = []int{1, 8, 64}
	}
	if len(o.Algs) == 0 {
		o.Algs = []core.Algorithm{core.NOrec, core.TinyETLWB, core.VRETLWB}
	}
	if len(o.ReadPcts) == 0 {
		o.ReadPcts = []int{90, 50}
	}
	if o.Batches == 0 {
		o.Batches = 6
	}
	if o.OpsPerBatch == 0 {
		o.OpsPerBatch = 256
	}
	if o.Tasklets == 0 {
		o.Tasklets = 11
	}
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

// multiDPUReport is the top-level JSON artifact.
type multiDPUReport struct {
	SchemaVersion int                `json:"schema_version"`
	Experiment    string             `json:"experiment"`
	Scenarios     []multiDPUScenario `json:"scenarios"`
}

// runMultiDPUCell streams the serving workload of one sweep cell
// through a pipelined PartitionedMap and reports its modeled timing
// (the fleet tracks the lockstep-equivalent cost alongside, so one run
// yields both sides of the comparison).
func runMultiDPUCell(dpus int, alg core.Algorithm, readPct int, opt multiDPUOptions) (multiDPUScenario, error) {
	keyspace := 2 * opt.OpsPerBatch
	pm, err := host.NewPartitionedMap(host.PartitionedMapConfig{
		DPUs: dpus, Buckets: 256, Capacity: 2 * keyspace, Tasklets: opt.Tasklets,
		STM: core.Config{Algorithm: alg}, Mode: host.Pipelined,
		HostParallelism: opt.Parallelism,
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
	for b := 0; b < opt.Batches; b++ {
		ops = ops[:0]
		for i := 0; i < opt.OpsPerBatch; i++ {
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
		Batches:          opt.Batches,
		OpsPerBatch:      opt.OpsPerBatch,
		PipelinedSeconds: wall,
		LockstepSeconds:  lockstep,
		PipelineGain:     lockstep / wall,
		LaunchSeconds:    launch,
		TransferSeconds:  s.TransferSeconds - loaded.TransferSeconds,
		QuiescentSeconds: wall - launch,
		OpsPerSecond:     float64(total) / wall,
	}, nil
}

// runMultiDPU sweeps fleet size × algorithm × read mix, renders the
// table to w, and writes BENCH_multidpu.json when opt.Out is set.
func runMultiDPU(opt multiDPUOptions, w io.Writer) ([]multiDPUScenario, error) {
	opt.fill()
	var scenarios []multiDPUScenario
	for _, n := range opt.Fleets {
		for _, alg := range opt.Algs {
			for _, pct := range opt.ReadPcts {
				sc, err := runMultiDPUCell(n, alg, pct, opt)
				if err != nil {
					return nil, fmt.Errorf("multidpu %d DPUs %v %d%% reads: %w", n, alg, pct, err)
				}
				scenarios = append(scenarios, sc)
			}
		}
	}

	fmt.Fprintf(w, "== multidpu: fleet serving sweep (%d batches × %d ops, pipelined vs lockstep) ==\n",
		opt.Batches, opt.OpsPerBatch)
	fmt.Fprintln(w, hostParHeader(opt.Parallelism))
	fmt.Fprintf(w, "%6s %-12s %6s %14s %14s %8s %14s\n",
		"#DPUs", "STM", "reads", "pipelined ms", "lockstep ms", "gain", "ops/s")
	for _, sc := range scenarios {
		fmt.Fprintf(w, "%6d %-12s %5d%% %14.3f %14.3f %7.2fx %14.0f\n",
			sc.DPUs, sc.Algorithm, sc.ReadPct,
			sc.PipelinedSeconds*1e3, sc.LockstepSeconds*1e3, sc.PipelineGain, sc.OpsPerSecond)
	}

	if opt.Out != "" {
		blob, err := json.MarshalIndent(multiDPUReport{
			SchemaVersion: 1,
			Experiment:    "multidpu",
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

// parseAlgorithms resolves a comma-separated algorithm list.
func parseAlgorithms(s string) ([]core.Algorithm, error) {
	var out []core.Algorithm
	for _, name := range strings.Split(s, ",") {
		a, err := core.ParseAlgorithm(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
