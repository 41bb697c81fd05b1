package host

import (
	"fmt"
	"runtime"
	"slices"
	"sort"

	"pimstm/internal/core"
	"pimstm/internal/dpu"
	"pimstm/internal/structures"
)

// PartitionedMap is a key-value store distributed across a fleet of
// DPUs — the data-structure direction the paper's §5 sketches as future
// work. Keys are routed to their owner DPU by a pluggable Placement
// (static hash by default, an adaptive Directory with migration and
// read replicas optionally); operations on keys of one DPU run as
// transactions inside that DPU (PIM-STM regulates the intra-DPU
// concurrency); operations spanning DPUs are coordinated by the CPU
// while the involved DPUs are idle, exactly as §3.1 describes — but
// coalesced per quiescent window into batched transfers instead of
// issued one 331 µs CPU-mediated word at a time.
//
// The store processes operations in batches through a Fleet, matching
// the UPMEM execution model: the CPU may only touch DPU memory between
// kernel launches, so it buckets a batch by target DPU, launches one
// program per involved DPU that applies its share with tasklet
// parallelism, and charges the scatter/gather through the fleet's
// transfer pipeline. In Pipelined mode consecutive batches overlap:
// while the fleet executes batch b, the host streams batch b+1 down and
// batch b-1's results up.
//
// With a Directory placement, replica maintenance rides the same
// machinery: reads of a replicated key spread over the owner and its
// fresh copies, writes invalidate or update the copies through shadow
// operations coalesced into the batch's own round, and stale copies are
// refreshed by shadow writes in a later batch — so replication is never
// modeled as free.
//
// With Sample > 0 the store runs in sampled-fleet mode: only the
// sample's representative DPUs are cycle-simulated, while every other
// DPU keeps its key state in a cheap host-side shadow shard (same
// capacity bound, same guarded-RMW/replica/migration semantics — all
// results stay exact) and its kernel time is charged analytically from
// the calibrated per-op cycle rate. Transfer costs are unchanged: a
// round still pays for every involved DPU under the worst-bucket and
// per-link-cap rules. That is what lets sweeps reach the paper's 2500
// DPUs at millions of modeled ops/s without simulating 2500 DPUs.
type PartitionedMap struct {
	fleet *Fleet
	tms   []*core.TM
	maps  []*structures.Map

	tasklets int

	// Sampled-fleet state. sim flags the cycle-simulated ids; shadow
	// holds the host-side key state of every unsimulated DPU (nil in
	// exact mode); shadowCap mirrors the per-partition node-pool
	// capacity; opCycles is the calibrated per-operation kernel cycle
	// rate the analytic charge uses, refreshed from every round with
	// simulated work; applyCycles is its writeback-kernel sibling — the
	// per-compiled-instruction rate of the kernel-side commit round.
	sampled     bool
	sim         []bool
	shadow      []map[uint64]uint64
	shadowCap   int
	opCycles    float64
	applyCycles float64

	// sc is the reusable per-batch scratch of the ApplyTxns hot path
	// and exec the persistent per-simulated-DPU kernel contexts; both
	// exist so a steady-state batch allocates (nearly) nothing.
	sc   batchScratch
	exec map[int]*dpuExec

	// Host-parallel engine state (hostpar.go): the resolved worker
	// count, the static-hash fan-in of the engine's devirtualized owner
	// routing (0 when the placement is not a plain StaticHash), the
	// owner closure bound once for classifyOps, and the per-worker
	// scratch arenas with their dispatch cursor.
	hostWorkers int
	staticN     int
	ownerFn     func(uint64) int
	par         hostPar

	place Placement
	// dir is place when it is a *Directory (nil otherwise); the data
	// plane needs the mutable view to maintain replica freshness.
	dir *Directory
	// reb, when attached, observes every applied batch and acts
	// between quiescent windows (see MaybeRebalance).
	reb *Rebalancer

	// splitTrack is the host's exact view of every delta shard's
	// balance, keyed by shard key: seeded at zero by SplitKeys, set
	// exactly at every reconciliation fold, adjusted by committed
	// rewritten ops post-batch, and deleted on unsplit. The sub-rewrite
	// coverage check (split.go) reads it to prove a batch's pending
	// subtractions cannot underflow their shards.
	splitTrack map[uint64]uint64

	// BatchSeconds is the modeled wall-clock delta of the last
	// ApplyTxns/ApplyBatch/ApplyTransfers call (what that window added
	// to the fleet clock; see Stats for the cumulative breakdown).
	BatchSeconds float64
	// BatchLaunchSeconds and BatchTransferSeconds split the last
	// ApplyTxns window's cost into kernel launch time and host↔DPU
	// transfer-engine time (handshakes + payload) — the
	// kernel-vs-handshake signal the adaptive batch scheduler feeds on.
	BatchLaunchSeconds, BatchTransferSeconds float64
	// TxnsApplied and TxnsCoordinated count the transactions processed
	// so far and how many of them needed CPU coordination (cross-DPU
	// conflict groups routed through snapshot/writeback rounds).
	TxnsApplied, TxnsCoordinated int
	// SplitReconciles counts the split-key epoch reconciliations paid so
	// far: one per key per merge round folding its per-DPU delta shards
	// into the home value (see split.go).
	SplitReconciles int
	// BatchPhases breaks the last ApplyTxns window's coordination cost
	// into gather, kernel-apply, and writeback-transfer phases — the
	// per-phase attribution the bench artifacts record.
	BatchPhases ApplyTxnsStats

	// mutPut/mutVals/mutDel is the in-flight mutateLists context read
	// by the persistent mutate-round programs; execProgFn and mutProgFn
	// are the Round program values, bound once so the hot path never
	// re-creates a method closure.
	mutPut, mutDel *dpuKeyLists
	mutVals        map[uint64]uint64
	execProgFn     func(id int, d *dpu.DPU) (float64, error)
	mutProgFn      func(id int, d *dpu.DPU) (float64, error)
	wbProgFn       func(id int, d *dpu.DPU) (float64, error)
}

// PartitionedMapConfig parameterizes a store. Zero fields take the
// documented defaults.
type PartitionedMapConfig struct {
	// DPUs is the fleet size (required, ≥ 1).
	DPUs int
	// Buckets and Capacity size each per-DPU hash map partition.
	Buckets, Capacity int
	// Tasklets is the intra-DPU parallelism per batch (required,
	// 1..dpu.MaxTasklets).
	Tasklets int
	// STM selects the algorithm and metadata tier inside each DPU.
	STM core.Config
	// Mode schedules the host↔DPU transfers (default Pipelined).
	Mode ExecMode
	// MRAMSize per DPU; 0 = 8 MiB.
	MRAMSize int
	// Placement routes keys to DPUs (nil = NewStaticHash(DPUs), the
	// seed behavior). Pass a *Directory to enable per-key overrides
	// and hot-key read replicas.
	Placement Placement
	// Sample, when > 0, runs the store in sampled-fleet mode: only
	// min(Sample, DPUs) representative DPUs — spread deterministically
	// as ids[i] = i·DPUs/Sample — are cycle-simulated, while the rest
	// keep their exact key state in host-side shadow shards and charge
	// their kernel time analytically from a calibrated per-op cycle
	// rate (transfer costs still pay for every involved DPU). Results
	// stay exact; only the kernel-time model of unsimulated DPUs is
	// approximate. 0 simulates every DPU — the exact mode every
	// pre-sampling artifact uses.
	Sample int
	// HostParallelism bounds the worker pool of the host-side batch
	// phases (transaction classification, per-key write analysis,
	// sampled shadow-shard application) and of the fleet's DPU
	// simulations: 0 resolves to GOMAXPROCS, N ≥ 1 runs N workers.
	// Every batch runs through the one host engine whatever the width,
	// and every modeled result is byte-identical across settings.
	HostParallelism int
}

// OpKind selects a batch operation.
type OpKind int

// Batch operation kinds. OpGet, OpPut and OpDelete are the plain map
// operations; OpAdd and OpSub are guarded read-modify-writes for use
// inside a Txn — OpAdd fails when the key is missing, OpSub also when
// the subtraction would underflow, and a failing guard aborts the whole
// transaction (nothing applies).
const (
	OpGet OpKind = iota
	OpPut
	OpDelete
	OpAdd
	OpSub
)

// Op is one keyed operation in a transaction or batch. For OpAdd and
// OpSub, Value is the delta applied to the stored value.
type Op struct {
	Kind  OpKind
	Key   uint64
	Value uint64
}

// OpResult is the outcome of one Op.
type OpResult struct {
	// Value is the read value for OpGet.
	Value uint64
	// OK reports presence (Get/Delete) or insertion (Put).
	OK bool
	// Err is non-nil when e.g. the owner DPU's pool is exhausted.
	Err error
}

// Transfer is one cross-DPU atomic move: Amount is debited from the
// value under From and credited to the value under To.
type Transfer struct {
	From, To uint64
	Amount   uint64
}

// NewPartitionedMap builds a store over cfg.DPUs DPUs. With Sample 0
// the fleet is exact (every DPU simulated, the mode in which the stored
// data is bit-for-bit what real hardware would hold); with Sample > 0
// only the representative sample is simulated and the rest run as
// host-side shadow shards charged analytically — see
// PartitionedMapConfig.Sample.
func NewPartitionedMap(cfg PartitionedMapConfig) (*PartitionedMap, error) {
	if cfg.DPUs < 1 {
		return nil, fmt.Errorf("host: partitioned map needs at least one DPU")
	}
	if cfg.Tasklets < 1 || cfg.Tasklets > dpu.MaxTasklets {
		return nil, fmt.Errorf("host: bad tasklet count %d", cfg.Tasklets)
	}
	if cfg.Sample < 0 {
		return nil, fmt.Errorf("host: negative DPU sample %d", cfg.Sample)
	}
	if cfg.HostParallelism < 0 {
		return nil, fmt.Errorf("host: negative host parallelism %d", cfg.HostParallelism)
	}
	if cfg.MRAMSize == 0 {
		cfg.MRAMSize = 8 << 20
	}
	if cfg.Placement == nil {
		cfg.Placement = NewStaticHash(cfg.DPUs)
	}
	if err := validatePlacement(cfg.Placement, cfg.DPUs); err != nil {
		return nil, err
	}
	pm := &PartitionedMap{
		tasklets: cfg.Tasklets,
		tms:      make([]*core.TM, cfg.DPUs),
		maps:     make([]*structures.Map, cfg.DPUs),
		place:    cfg.Placement,
	}
	pm.dir, _ = cfg.Placement.(*Directory)
	pm.hostWorkers = cfg.HostParallelism
	if pm.hostWorkers == 0 {
		pm.hostWorkers = runtime.GOMAXPROCS(0)
	}
	pm.ownerFn = pm.owner
	if _, static := cfg.Placement.(*StaticHash); static {
		pm.staticN = cfg.DPUs
	}
	pm.par.w = make([]hostWorker, pm.hostWorkers)
	fo := FleetOptions{DPUs: cfg.DPUs, Tasklets: cfg.Tasklets, Parallelism: cfg.HostParallelism}
	if cfg.Sample > 0 {
		fo.Sample = cfg.Sample
	} else {
		fo.Exact = true
	}
	fleet, err := NewFleet(fo, cfg.Mode,
		func(id int) (*dpu.DPU, error) {
			d := dpu.New(dpu.Config{MRAMSize: cfg.MRAMSize, Seed: uint64(id) + 1})
			tm, err := core.New(d, cfg.STM)
			if err != nil {
				return nil, err
			}
			m, err := structures.NewMap(d, cfg.Buckets, cfg.Capacity)
			if err != nil {
				return nil, err
			}
			pm.tms[id] = tm
			pm.maps[id] = m
			return d, nil
		})
	if err != nil {
		return nil, err
	}
	pm.fleet = fleet
	simIDs := fleet.ids
	pm.sim = make([]bool, cfg.DPUs)
	for _, id := range simIDs {
		pm.sim[id] = true
	}
	pm.sampled = len(simIDs) < cfg.DPUs
	if pm.sampled {
		pm.shadow = make([]map[uint64]uint64, cfg.DPUs)
		for id := range pm.shadow {
			if !pm.sim[id] {
				pm.shadow[id] = make(map[uint64]uint64)
			}
		}
		pm.shadowCap = cfg.Capacity
		rate, err := calibrateOpCycles(cfg)
		if err != nil {
			return nil, fmt.Errorf("host: sampled-fleet calibration: %w", err)
		}
		pm.opCycles = rate
		applyRate, err := calibrateApplyCycles(cfg)
		if err != nil {
			return nil, fmt.Errorf("host: sampled-fleet apply calibration: %w", err)
		}
		pm.applyCycles = applyRate
	}
	pm.sc.init(cfg.DPUs)
	pm.exec = make(map[int]*dpuExec, len(simIDs))
	for _, id := range simIDs {
		pm.exec[id] = newDPUExec(pm, id)
	}
	pm.execProgFn = pm.runExecProgram
	pm.mutProgFn = pm.runMutProgram
	pm.wbProgFn = pm.runWbProgram
	return pm, nil
}

// SimulatedDPUs reports how many of the fleet's DPUs are cycle-
// simulated: the fleet size in exact mode, the sample size in sampled
// mode.
func (pm *PartitionedMap) SimulatedDPUs() int { return len(pm.fleet.ids) }

// DPUs returns the fleet size.
func (pm *PartitionedMap) DPUs() int { return pm.fleet.Size() }

// Placement returns the routing policy the store was built with.
func (pm *PartitionedMap) Placement() Placement { return pm.place }

// Stats snapshots the fleet's modeled timing (launch, transfer,
// quiescent-window and wall seconds, plus the lockstep-equivalent cost
// for pipeline-gain comparisons).
func (pm *PartitionedMap) Stats() FleetStats { return pm.fleet.Stats() }

// owner routes a key to its authoritative DPU.
func (pm *PartitionedMap) owner(key uint64) int { return pm.place.Owner(key) }

// ApplyBatch routes a batch of independent single operations — each op
// its own 1-op transaction, the ApplyTxns degenerate case — and returns
// per-op results in order. It preserves the pre-Txn semantics exactly:
// every op is an independent concurrent transaction, so same-key order
// within a batch is unspecified (replicated-key puts excepted, which
// serialize on one owner tasklet), and the round charges the worst-case
// per-DPU bucket. Results are functionally valid immediately; on the
// modeled clock the batch's gather may still be in flight (Pipelined
// mode) — Stats always accounts for the drain, and BatchSeconds reports
// this batch's delta.
func (pm *PartitionedMap) ApplyBatch(ops []Op) ([]OpResult, error) {
	txns := make([]Txn, len(ops))
	for i, op := range ops {
		txns[i] = Txn{Ops: []Op{op}}
	}
	tres, err := pm.ApplyTxns(txns)
	if err != nil {
		return nil, err
	}
	results := make([]OpResult, len(ops))
	for i := range tres {
		results[i] = tres[i].Results[0]
	}
	return results, nil
}

// MaybeRebalance runs one decision step of the attached Rebalancer if
// its observation window is full, executing any promotions and
// migrations as paid fleet rounds in the current quiescent window. It
// reports whether the rebalancer acted. A no-op without a rebalancer.
func (pm *PartitionedMap) MaybeRebalance() (bool, error) {
	if pm.reb == nil {
		return false, nil
	}
	return pm.reb.Step()
}

// ApplyTransfers executes a batch of atomic moves in one quiescent
// window through ApplyTxns, each transfer a guarded 2-key transaction —
// a debit of From (OpSub, aborting on a missing key or underflow) and a
// credit of To (OpAdd, aborting on a missing key) — committed in batch
// order like any other conflicting transactions. A move whose keys
// share a DPU runs inside that DPU's kernel; a cross-DPU move rides the
// coalesced snapshot gather and the kernel-side commit round — never
// 331 µs CPU-mediated words. ok[i] reports whether transfer i
// committed. Replica copies of changed keys go stale and are refreshed
// by a later batch.
func (pm *PartitionedMap) ApplyTransfers(ts []Transfer) ([]bool, error) {
	txns := make([]Txn, len(ts))
	for i, t := range ts {
		txns[i] = Txn{Ops: []Op{
			{Kind: OpSub, Key: t.From, Value: t.Amount},
			{Kind: OpAdd, Key: t.To, Value: t.Amount},
		}}
	}
	res, err := pm.ApplyTxns(txns)
	if err != nil {
		return nil, err
	}
	ok := make([]bool, len(ts))
	for i := range res {
		ok[i] = res[i].Committed
	}
	return ok, nil
}

// TransferBetween atomically moves `amount` from the value under
// keyFrom to the value under keyTo — a single-element ApplyTransfers.
// It reports false without changes if either key is missing or the
// source would underflow.
func (pm *PartitionedMap) TransferBetween(keyFrom, keyTo, amount uint64) (bool, error) {
	ok, err := pm.ApplyTransfers([]Transfer{{From: keyFrom, To: keyTo, Amount: amount}})
	if err != nil {
		return false, err
	}
	return ok[0], nil
}

// MigrateKeys rehomes each key to its destination DPU, as two modeled
// fleet rounds in the current quiescent window: one coalesced gather of
// the migrating 16-byte records from their source DPUs, then one
// scatter round that writes each record on its destination and deletes
// it from its source. Requires a Directory placement (the overrides
// live there). Keys already home, or missing from their source, are
// skipped. BatchSeconds reports the migration window's delta.
func (pm *PartitionedMap) MigrateKeys(moves map[uint64]int) error {
	return pm.ApplyPlacement(moves, nil)
}

// ReplicateKeys promotes each key to hot-key read replicas on the given
// DPUs: one coalesced gather of the records from their owners, then one
// scatter round writing the copies. Existing copies are rewritten too
// (which is what refreshes a stale entry at promotion time), the owner
// is never a copy of itself, and keys missing from their owner are
// skipped. Requires a Directory placement. BatchSeconds reports the
// promotion window's delta.
func (pm *PartitionedMap) ReplicateKeys(reps map[uint64][]int) error {
	return pm.ApplyPlacement(nil, reps)
}

// DropReplicaKeys de-promotes keys: every physical replica copy of the
// given keys is deleted in one paid coalesced scatter round on the copy
// holders, and the directory forgets them — the reverse of
// ReplicateKeys, used by the Rebalancer when a once-hot key goes cold
// so the directory does not grow monotonically. Keys without copies are
// skipped; with nothing to drop the call is free. Requires a Directory
// placement. BatchSeconds reports the window's delta.
func (pm *PartitionedMap) DropReplicaKeys(keys []uint64) error {
	if pm.dir == nil {
		return fmt.Errorf("host: replica de-promotion needs a Directory placement")
	}
	wallBefore := pm.fleet.Stats().WallSeconds
	delOn := make(map[int][]uint64)
	var dropped []uint64
	seen := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		copies := pm.dir.allReplicas(k)
		if len(copies) == 0 {
			continue
		}
		for _, r := range copies {
			delOn[r] = append(delOn[r], k)
		}
		dropped = append(dropped, k)
	}
	if len(dropped) == 0 {
		pm.BatchSeconds = 0
		return nil
	}
	for _, id := range sortedKeys(delOn) {
		sort.Slice(delOn[id], func(a, b int) bool { return delOn[id][a] < delOn[id][b] })
	}
	if err := pm.mutateRound(nil, nil, delOn); err != nil {
		return err
	}
	for _, k := range dropped {
		pm.dir.dropReplicas(k)
	}
	pm.BatchSeconds = pm.fleet.Stats().WallSeconds - wallBefore
	return nil
}

// ApplyPlacement executes one coalesced placement change — key
// migrations and replica promotions together — as exactly two modeled
// fleet rounds: one gather of every touched record from its current
// owner, one scatter round applying all destination puts, replica
// copies and source deletes. Coalescing matters because each round
// costs a ~300 µs handshake: the control plane pays two of them per
// decision, not two per remedy. Requires a Directory placement.
func (pm *PartitionedMap) ApplyPlacement(moves map[uint64]int, reps map[uint64][]int) error {
	if pm.dir == nil {
		return fmt.Errorf("host: placement changes need a Directory placement")
	}
	wallBefore := pm.fleet.Stats().WallSeconds
	perSrc := make(map[int][]uint64)
	srcOf := make(map[uint64]int)
	targets := make(map[uint64][]int)
	addSrc := func(k uint64) {
		if _, seen := srcOf[k]; seen {
			return
		}
		src := pm.owner(k)
		srcOf[k] = src
		perSrc[src] = append(perSrc[src], k)
	}
	for _, k := range sortedKeys(moves) {
		dst := moves[k]
		if dst < 0 || dst >= pm.fleet.Size() {
			return fmt.Errorf("host: migration of key %d to DPU %d out of range", k, dst)
		}
		if pm.owner(k) == dst {
			continue
		}
		addSrc(k)
	}
	for _, k := range sortedKeys(reps) {
		owner := pm.owner(k)
		if dst, moving := moves[k]; moving && dst != owner {
			// One decision may not migrate and replicate the same key;
			// the copy set would chase the moving owner.
			return fmt.Errorf("host: key %d both migrated and replicated in one placement change", k)
		}
		set := make(map[int]bool)
		for _, r := range pm.dir.allReplicas(k) {
			set[r] = true
		}
		for _, r := range reps[k] {
			if r < 0 || r >= pm.fleet.Size() {
				return fmt.Errorf("host: replica of key %d on DPU %d out of range", k, r)
			}
			if r != owner {
				set[r] = true
			}
		}
		if len(set) == 0 {
			continue
		}
		targets[k] = sortedKeys(set)
		addSrc(k)
	}
	if len(srcOf) == 0 {
		pm.BatchSeconds = 0
		return nil
	}
	vals, err := pm.gatherRecords(perSrc)
	if err != nil {
		return err
	}

	putOn := make(map[int][]uint64)
	delOn := make(map[int][]uint64)
	moved := make(map[uint64]int)
	copied := make(map[uint64][]int)
	for _, k := range sortedKeys(srcOf) {
		if _, ok := vals[k]; !ok {
			continue // key vanished from its owner; nothing to move or copy
		}
		if dst, moving := moves[k]; moving && dst != srcOf[k] {
			putOn[dst] = append(putOn[dst], k)
			delOn[srcOf[k]] = append(delOn[srcOf[k]], k)
			moved[k] = dst
		}
		if set, ok := targets[k]; ok {
			for _, r := range set {
				putOn[r] = append(putOn[r], k)
			}
			copied[k] = set
		}
	}
	if len(moved) == 0 && len(copied) == 0 {
		pm.BatchSeconds = pm.fleet.Stats().WallSeconds - wallBefore
		return nil
	}
	if err := pm.mutateRound(putOn, vals, delOn); err != nil {
		return err
	}
	for k, dst := range moved {
		pm.dir.setOwner(k, dst)
	}
	for k, set := range copied {
		pm.dir.setReplicas(k, set)
	}
	pm.BatchSeconds = pm.fleet.Stats().WallSeconds - wallBefore
	return nil
}

// gatherRecords runs one coalesced gather round over the per-source key
// lists and returns the values read host-side in the quiescent window.
// Keys missing from their source are absent from the result. This is
// the control-plane entry; the serving hot path calls gatherRound with
// its persistent scratch directly.
func (pm *PartitionedMap) gatherRecords(perSrc map[int][]uint64) (map[uint64]uint64, error) {
	lists := &pm.sc.ctlSrc
	lists.reset()
	for id, ks := range perSrc {
		for _, k := range ks {
			lists.add(id, k)
		}
	}
	vals := make(map[uint64]uint64)
	if err := pm.gatherRound(lists, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// gatherRound is the gather core: one transfer round charged by the
// worst per-source bucket, then host-side reads of every listed key —
// from the simulated DPU's map, or straight from the shadow shard of an
// unsimulated one. Values land in out; keys missing from their source
// are left absent.
func (pm *PartitionedMap) gatherRound(perSrc *dpuKeyLists, out map[uint64]uint64) error {
	srcIDs := perSrc.sortedIDs()
	maxRec := 0
	for _, id := range srcIDs {
		if n := len(perSrc.lists[id]); n > maxRec {
			maxRec = n
		}
	}
	if err := pm.fleet.Round(RoundSpec{
		Involved:    len(srcIDs),
		GatherBytes: 16 * maxRec,
	}); err != nil {
		return err
	}
	for _, id := range srcIDs {
		ks := perSrc.lists[id]
		if pm.isShadow(id) {
			sh := pm.shadow[id]
			for _, k := range ks {
				if v, ok := sh[k]; ok {
					out[k] = v
				}
			}
			continue
		}
		want := pm.sc.want
		clear(want)
		for _, k := range ks {
			want[k] = true
		}
		pm.maps[id].Walk(pm.fleet.DPU(id), func(k, v uint64) {
			if want[k] {
				out[k] = v
			}
		})
	}
	return nil
}

// mutateRound runs one scatter round that puts vals[k] for every key of
// putOn[id] and deletes every key of delOn[id] — the control-plane
// entry over mutateLists.
func (pm *PartitionedMap) mutateRound(putOn map[int][]uint64, vals map[uint64]uint64, delOn map[int][]uint64) error {
	sc := &pm.sc
	sc.ctlPut.reset()
	sc.ctlDel.reset()
	for id, ks := range putOn {
		for _, k := range ks {
			sc.ctlPut.add(id, k)
		}
	}
	for id, ks := range delOn {
		for _, k := range ks {
			sc.ctlDel.add(id, k)
		}
	}
	return pm.mutateLists(&sc.ctlPut, vals, &sc.ctlDel)
}

// mutateLists is the mutation core: one coalesced program per involved
// DPU, 16 bytes of scatter payload per put record and 8 per delete
// message, charged by the worst-case bucket. Simulated DPUs run the
// persistent single-tasklet mutate program; shadow shards apply the
// same puts and deletes host-side, with the worst shadow bucket charged
// analytically through the round's kernel floor.
func (pm *PartitionedMap) mutateLists(put *dpuKeyLists, vals map[uint64]uint64, del *dpuKeyLists) error {
	sc := &pm.sc
	inv := sc.mutInvolved[:0]
	inv = append(inv, put.touched...)
	for _, id := range del.touched {
		if len(put.lists[id]) == 0 {
			inv = append(inv, id)
		}
	}
	slices.Sort(inv)
	sc.mutInvolved = inv
	maxBytes, maxShadowOps := 0, 0
	for _, id := range inv {
		if b := 16*len(put.lists[id]) + 8*len(del.lists[id]); b > maxBytes {
			maxBytes = b
		}
		if pm.isShadow(id) {
			if ops := len(put.lists[id]) + len(del.lists[id]); ops > maxShadowOps {
				maxShadowOps = ops
			}
		}
	}
	pm.mutPut, pm.mutVals, pm.mutDel = put, vals, del
	spec := RoundSpec{
		Involved:     len(inv),
		ScatterBytes: maxBytes,
		IDs:          inv,
		Program:      pm.mutProgFn,
	}
	if pm.sampled {
		ids := sc.mutSimIDs[:0]
		for _, id := range inv {
			if pm.sim[id] {
				ids = append(ids, id)
			}
		}
		sc.mutSimIDs = ids
		spec.IDs = ids
		spec.AnalyticKernelSeconds = dpu.EstimateKernelSeconds(pm.opCycles, maxShadowOps, 0)
	}
	if err := pm.fleet.Round(spec); err != nil {
		return err
	}
	if pm.sampled {
		for _, id := range inv {
			if pm.sim[id] {
				continue
			}
			for _, k := range put.lists[id] {
				if _, err := pm.shadowPut(id, k, vals[k]); err != nil {
					return fmt.Errorf("host: placement mutation on dpu %d: %w", id, err)
				}
			}
			for _, k := range del.lists[id] {
				pm.shadowDelete(id, k)
			}
		}
	}
	return nil
}

// runMutProgram is the Round program of mutateLists on one simulated
// DPU: it relaunches the DPU's persistent single-tasklet mutate kernel.
func (pm *PartitionedMap) runMutProgram(id int, d *dpu.DPU) (float64, error) {
	e := pm.exec[id]
	d.ResetRun()
	e.mutErr = nil
	cycles, err := d.Run(e.muProg)
	if err != nil {
		return 0, err
	}
	if e.mutErr != nil {
		return 0, fmt.Errorf("host: placement mutation on dpu %d: %w", id, e.mutErr)
	}
	return d.Seconds(cycles), nil
}

// runMutate is the body of the persistent mutate kernel: one STM
// transaction applying this DPU's put and delete lists in order.
func (e *dpuExec) runMutate(t *dpu.Tasklet) {
	pm := e.pm
	m := pm.maps[e.id]
	puts, dels, vals := pm.mutPut.lists[e.id], pm.mutDel.lists[e.id], pm.mutVals
	tx := e.txFor(0, t)
	tx.Atomic(func(tx *core.Tx) {
		e.mutErr = nil // fresh attempt after an abort
		for _, k := range puts {
			if _, err := m.Put(tx, k, vals[k]); err != nil {
				e.mutErr = err
				return
			}
		}
		for _, k := range dels {
			m.Delete(tx, k)
		}
	})
}

// hostGet reads a key directly from an idle DPU (or its shadow shard).
func (pm *PartitionedMap) hostGet(id int, key uint64) (uint64, bool) {
	if pm.isShadow(id) {
		return pm.shadowGet(id, key)
	}
	var v uint64
	var ok bool
	pm.maps[id].Walk(pm.fleet.DPU(id), func(k, val uint64) {
		if k == key {
			v, ok = val, true
		}
	})
	return v, ok
}

// Get reads a key from the host (between batches), always from its
// authoritative owner. A split key's logical value is its home base
// plus every per-DPU delta shard — what a reconciliation would fold.
func (pm *PartitionedMap) Get(key uint64) (uint64, bool) {
	v, ok := pm.hostGet(pm.owner(key), key)
	if ok && pm.dir != nil && pm.dir.isSplit(key) {
		for d := 0; d < pm.fleet.Size(); d++ {
			if sv, sok := pm.hostGet(d, shardKeyFor(key, d)); sok {
				v += sv
			}
		}
	}
	return v, ok
}

// Len counts the distinct keys stored: the sizes of every partition
// (simulated map or shadow shard) minus the physical replica copies the
// directory tracks.
func (pm *PartitionedMap) Len() int {
	n := 0
	for i, m := range pm.maps {
		if pm.isShadow(i) {
			n += len(pm.shadow[i])
			continue
		}
		n += m.Len(pm.fleet.DPU(i))
	}
	if pm.dir != nil {
		n -= pm.dir.replicaCopies()
		// Every split key holds one delta shard per DPU — bookkeeping
		// records, not client keys.
		n -= pm.dir.splitCount() * pm.fleet.Size()
	}
	return n
}

// sortedKeys returns the map's keys in ascending order (deterministic
// iteration for fleets and writebacks).
func sortedKeys[K int | uint64, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
