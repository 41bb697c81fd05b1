package main

import (
	"fmt"
	"sort"
	"time"

	"pimstm/internal/core"
	"pimstm/internal/host"
	"pimstm/internal/workload"
)

// servingConfig is one serving workload: an application stream and the
// store, batcher and control plane it is served on.
type servingConfig struct {
	Name     string
	Workload workload.Workload
	// Serve holds everything but Trace and Preload, which come from
	// Workload. Its Placement and Scheduler are fresh per config (both
	// are stateful).
	Serve host.ServeConfig
	// MaxDrainSeconds bounds the modeled backlog left when the last
	// transaction has arrived (makespan − last arrival). A larger drain
	// means the arrival rate is above capacity and the queue grew.
	MaxDrainSeconds float64
}

// Operating points, each below a capacity measured on the same
// configuration (seed 1; README.md has the table). The kv fleet is
// transfer-bound: one round's handshake takes about 0.6 ms modeled, so
// at the scale experiment's 500 µs MaxDelay the backlog grows at every
// rate from 2.5e5 to 8e5 txn/s. With a 2 ms MaxDelay it drains at
// 1.25e6 txn/s and grows at 1.5e6, so kvRate is 1e6. neworder drains at
// 8e3 orders/s, builds a 20 ms backlog at 1.2e4 and grows at 1.6e4, so
// noRate is 8e3. The drain bounds fail a run whose backlog grew.
const (
	kvDPUs     = 2500
	kvSample   = 8
	kvTxns     = 1_200_000
	kvRate     = 1e6
	kvMaxDelay = 2e-3
	kvMaxDrain = 10e-3

	noDPUs     = 8
	noTxns     = 25_000
	noRate     = 8e3
	noItems    = 256
	noStock    = 10_000
	noMaxBatch = 48
	noMaxDelay = 300e-6
	noMaxDrain = 10e-3
)

// benchKV is kv-fleet2500: single-op KV at 90% reads and Zipf 0.99 on
// the paper's 2500-DPU fleet in sampled mode, static hash placement,
// the FIFO scheduler and NOrec.
func benchKV(seed uint64, txns int) servingConfig {
	traffic := host.TrafficConfig{
		Ops: txns, Rate: kvRate, ReadPct: 90,
		Keyspace: 32 * kvDPUs, ZipfS: 0.99, Seed: seed,
	}
	return servingConfig{
		Name:     "kv-fleet2500",
		Workload: workload.NewKV(traffic),
		Serve: host.ServeConfig{
			Map: host.PartitionedMapConfig{
				DPUs: kvDPUs, Sample: kvSample, Tasklets: 8,
				Buckets: 64, Capacity: 256,
				STM: core.Config{Algorithm: core.NOrec}, Mode: host.Pipelined,
			},
			Submit:  host.SubmitterConfig{MaxBatch: 4096, MaxDelaySeconds: kvMaxDelay},
			Traffic: traffic,
		},
		MaxDrainSeconds: kvMaxDrain,
	}
}

// benchNewOrder is neworder-coord: TPC-C-style orders on 8 exact DPUs,
// Directory placement with the rebalancer's split policy, the lane
// scheduler and Tiny ETLWB. Stock is sized so popular items run dry and
// some orders abort on their guarded OpSub.
func benchNewOrder(seed uint64, txns int) (servingConfig, error) {
	w, err := workload.NewNewOrder(workload.NewOrderConfig{
		Txns: txns, Rate: noRate, Seed: seed,
		Items: noItems, InitialStock: noStock, ItemZipfS: 0.99,
	})
	if err != nil {
		return servingConfig{}, err
	}
	reb := host.KernelBoundServingRebalance(3)
	reb.ReplicateMaxWriteShare = 1e-9
	reb.SplitMinAddShare = 0.5
	lanes := host.LaneSchedulerConfig{
		Confined:    host.LaneConfig{MaxBatch: noMaxBatch, MaxDelaySeconds: noMaxDelay},
		Coordinated: host.LaneConfig{MaxBatch: 2 * noMaxBatch, MaxDelaySeconds: 2 * noMaxDelay},
	}
	return servingConfig{
		Name:     "neworder-coord",
		Workload: w,
		Serve: host.ServeConfig{
			Map: host.PartitionedMapConfig{
				DPUs: noDPUs, Tasklets: 4,
				STM: core.Config{Algorithm: core.TinyETLWB}, Mode: host.Pipelined,
				Placement: host.NewDirectory(noDPUs),
			},
			Submit:    host.SubmitterConfig{MaxBatch: noMaxBatch, MaxDelaySeconds: noMaxDelay},
			Rebalance: &reb,
			Scheduler: func() host.Scheduler { return host.NewLaneScheduler(lanes) },
		},
		MaxDrainSeconds: noMaxDrain,
	}, nil
}

// serveSteps is host.Serve unrolled into the public calls it makes
// (NewPartitionedMap → ApplyBatch preload → NewRebalancer →
// NewSubmitter/Submit/Close → Future.Wait), so each can be timed. It
// returns the same modeled ServeResult Serve does for cfg, with
// KeepResults semantics. cfg.Trace and cfg.Preload must be set.
func serveSteps(cfg host.ServeConfig, rec *recorder, parent int, r *rep) (host.ServeResult, error) {
	trace := cfg.Trace
	if cfg.Map.Buckets == 0 {
		cfg.Map.Buckets = 256
	}
	if cfg.Map.Capacity == 0 {
		cfg.Map.Capacity = 4 * cfg.Traffic.Keyspace
		if n := 4 * len(cfg.Preload); n > cfg.Map.Capacity {
			cfg.Map.Capacity = n
		}
	}
	var setup float64
	m := rec.begin("host.partmap.new", parent)
	pm, err := host.NewPartitionedMap(cfg.Map)
	dt := rec.end(m)
	setup += dt
	r.set("host.partmap.new_s", dt)
	if err != nil {
		return host.ServeResult{}, err
	}
	m = rec.begin("host.partmap.preload", parent)
	_, err = pm.ApplyBatch(cfg.Preload)
	dt = rec.end(m)
	setup += dt
	r.set("host.partmap.preload_s", dt)
	if err != nil {
		return host.ServeResult{}, fmt.Errorf("preload: %w", err)
	}
	fs0 := pm.Stats()
	coordBase := pm.TxnsCoordinated

	var reb *host.Rebalancer
	if cfg.Rebalance != nil {
		m = rec.begin("host.rebalancer.new", parent)
		reb, err = host.NewRebalancer(pm, *cfg.Rebalance)
		setup += rec.end(m)
		if err != nil {
			return host.ServeResult{}, err
		}
	}
	scfg := cfg.Submit
	if cfg.Scheduler != nil {
		scfg.Scheduler = cfg.Scheduler()
	}
	m = rec.begin("host.submitter.new", parent)
	s := host.NewSubmitter(pm, scfg)
	setup += rec.end(m)
	r.set("setup_s", setup)

	// Run phase: every Submit, the drain in Close, and every Wait.
	// Submit calls are timed one by one only when tracing, so the
	// untraced run pays no per-call clock reads.
	futs := make([]*host.Future, len(trace))
	run := rec.begin("run", parent)
	m = rec.begin("host.submitter.submit", run.idx)
	var blocked float64
	for i, t := range trace {
		if rec.on {
			c := time.Now()
			futs[i], err = s.Submit(t.Txn, t.Arrival)
			blocked += time.Since(c).Seconds()
		} else {
			futs[i], err = s.Submit(t.Txn, t.Arrival)
		}
		if err != nil {
			_ = s.Close() // the Submit error is the one to report
			return host.ServeResult{}, err
		}
	}
	rec.end(m)
	r.set("host.submitter.submit_s", blocked)
	m = rec.begin("host.submitter.close", run.idx)
	err = s.Close()
	r.set("host.submitter.close_s", rec.end(m))
	if err != nil {
		return host.ServeResult{}, err
	}

	res := host.ServeResult{Txns: len(trace), Stats: s.Stats(), SimulatedDPUs: pm.SimulatedDPUs()}
	res.SplitReconciles = pm.SplitReconciles
	res.HostWorkers = pm.HostWorkers()
	res.HostSeconds = res.Stats.HostClassifySeconds + res.Stats.HostRouteSeconds +
		res.Stats.HostShadowSeconds + res.Stats.HostCompileSeconds
	res.Ops = res.Stats.Submitted
	res.Batches = res.Stats.Batches
	res.CoordinatedTxns = pm.TxnsCoordinated - coordBase
	if reb != nil {
		res.Rebalance = reb.Stats()
	}
	res.Results = make([]host.TxnResult, 0, len(futs))
	res.Store = pm
	lats := make([]float64, len(futs))
	m = rec.begin("host.submitter.wait", run.idx)
	for i, f := range futs {
		tr := f.Wait()
		if tr.Err != nil {
			res.Errors++
		} else if !tr.Committed {
			res.Aborted++
		}
		lats[i] = tr.LatencySeconds
		res.Results = append(res.Results, tr)
	}
	rec.end(m)
	r.set("run_s", rec.end(run))

	sort.Float64s(lats)
	res.P50 = nearestRank(lats, 0.50)
	res.P95 = nearestRank(lats, 0.95)
	res.P99 = nearestRank(lats, 0.99)
	fs := pm.Stats()
	res.MakespanSeconds = fs.WallSeconds - fs0.WallSeconds
	if res.MakespanSeconds > 0 {
		res.OpsPerSecond = float64(res.Ops) / res.MakespanSeconds
	}
	if res.Batches > 0 {
		res.MeanBatchOps = float64(res.Ops) / float64(res.Batches)
	}
	r.set("host.fleet.rounds", float64(fs.Rounds-fs0.Rounds))
	r.set("host.fleet.launch_s", fs.LaunchSeconds-fs0.LaunchSeconds)
	r.set("host.fleet.transfer_s", fs.TransferSeconds-fs0.TransferSeconds)
	r.set("host.fleet.quiescent_s", fs.QuiescentSeconds-fs0.QuiescentSeconds)
	r.set("host.fleet.lockstep_s", fs.LockstepSeconds-fs0.LockstepSeconds)
	return res, nil
}

// runServing generates the workload's inputs (untimed), serves them step
// by step, and checks the outcome against the workload's invariant and
// the accounting gates.
func runServing(sc servingConfig, rec *recorder) (*rep, error) {
	trace, err := sc.Workload.Generate()
	if err != nil {
		return nil, err
	}
	cfg := sc.Serve
	cfg.Trace = trace
	cfg.Preload = sc.Workload.Preload()
	cfg.KeepResults = true

	r := newRep()
	root := rec.begin(sc.Name, -1)
	res, err := serveSteps(cfg, rec, root.idx, r)
	if err != nil {
		return nil, err
	}
	m := rec.begin("workload.check", root.idx)
	var errs []string
	if res.Errors > 0 {
		errs = append(errs, fmt.Sprintf("%d/%d transactions errored", res.Errors, res.Txns))
	}
	if res.Stats.GuardAborts != res.Aborted {
		errs = append(errs, fmt.Sprintf("guard aborts %d != aborted outcomes %d", res.Stats.GuardAborts, res.Aborted))
	}
	drain := res.MakespanSeconds - trace[len(trace)-1].Arrival
	if drain > sc.MaxDrainSeconds {
		errs = append(errs, fmt.Sprintf("backlog grew: drain %.3g s > bound %.3g s (rate above capacity)", drain, sc.MaxDrainSeconds))
	}
	if err := sc.Workload.Check(res.Store.Get, res.Results); err != nil {
		errs = append(errs, err.Error())
	}
	check := rec.end(m)
	wall := rec.end(root)

	r.Attempted = res.Txns
	r.Failed = res.Errors
	if len(errs) > 0 {
		r.Failed = res.Txns
		r.Errors = errs
	}
	committed := res.Txns - res.Aborted - res.Errors
	r.set("wall_s", wall)
	r.set("sim_txns_per_s", float64(res.Txns)/r.Metrics["run_s"])
	r.set("modeled_txns_per_s", float64(committed)/res.MakespanSeconds)
	r.set("modeled_p50_s", res.P50)
	r.set("modeled_p99_s", res.P99)
	r.Samples = len(res.Results)
	r.set("txn_abort_ratio", float64(res.Aborted)/float64(res.Txns))
	r.set("commit_ratio", float64(committed)/float64(res.Txns))
	r.set("workload.check_s", check)

	st := res.Stats
	r.set("host.partmap.classify_s", st.HostClassifySeconds)
	r.set("host.partmap.route_s", st.HostRouteSeconds)
	r.set("host.partmap.shadow_s", st.HostShadowSeconds)
	r.set("host.partmap.compile_s", st.HostCompileSeconds)
	r.set("host.partmap.coordinated_txns", float64(res.CoordinatedTxns))
	r.set("host.partmap.guard_aborts", float64(st.GuardAborts))
	r.set("host.partmap.split_reconciles", float64(res.SplitReconciles))
	r.set("host.partmap.gather_s", st.GatherSeconds)
	r.set("host.partmap.apply_s", st.ApplySeconds)
	r.set("host.partmap.writeback_s", st.WritebackSeconds)
	r.set("host.partmap.simulated_dpus", float64(res.SimulatedDPUs))
	r.set("host.submitter.batches", float64(st.Batches))
	r.set("host.submitter.size_flushes", float64(st.SizeFlushes))
	r.set("host.submitter.delay_flushes", float64(st.DelayFlushes))
	r.set("host.submitter.drain_flushes", float64(st.DrainFlushes))
	r.set("host.submitter.mean_batch_ops", res.MeanBatchOps)
	r.set("host.submitter.max_batch_ops", float64(st.MaxBatchOps))
	r.set("host.submitter.confined_batches", float64(st.ConfinedBatches))
	r.set("host.submitter.coordinated_batches", float64(st.CoordinatedBatches))
	r.set("host.submitter.drain_s", drain)
	rb := res.Rebalance
	r.set("host.rebalancer.windows_evaluated", float64(rb.WindowsEvaluated))
	r.set("host.rebalancer.windows_acted", float64(rb.WindowsActed))
	r.set("host.rebalancer.keys_split", float64(rb.KeysSplit))
	r.set("host.rebalancer.keys_unsplit", float64(rb.KeysUnsplit))
	r.set("host.rebalancer.keys_migrated", float64(rb.KeysMigrated))
	r.set("host.rebalancer.keys_replicated", float64(rb.KeysReplicated))

	r.Fingerprint = servingFingerprint(res, r)
	return r, nil
}

// servingFingerprint hashes every modeled output: the ServeResult with
// its real-clock fields zeroed, every transaction's outcome and modeled
// latency, and the serving phase's fleet counters.
func servingFingerprint(res host.ServeResult, r *rep) string {
	fp := newFingerprint()
	for _, tr := range res.Results {
		fp.txn(tr)
	}
	res.ZeroHostClock()
	res.Results, res.Store = nil, nil
	fp.add(res)
	for _, name := range []string{"host.fleet.rounds", "host.fleet.launch_s", "host.fleet.transfer_s", "host.fleet.quiescent_s", "host.fleet.lockstep_s"} {
		fp.add(r.Metrics[name])
	}
	return fp.sum()
}
