package host

import (
	"fmt"
	"slices"
	"time"

	"pimstm/internal/core"
	"pimstm/internal/dpu"
)

// This file is the transactional serving core: host.Txn is the unit of
// submission everywhere — a client submits ordered groups of Ops over
// arbitrary keys, and the store commits each group atomically. The two
// execution tiers mirror the paper's cost cliff:
//
//   - A transaction whose keys all live on one DPU runs as a single
//     PIM-STM transaction inside that DPU's batch kernel — multi-key
//     atomicity is exactly what the STM gives natively, so it costs no
//     more than the ops themselves.
//   - A transaction spanning DPUs is coordinated in the quiescent
//     window (§3.1), but the committed writes execute in the kernels,
//     not on the host. A conflict group whose write set lives on one
//     DPU takes the single-owner fast path: a prepare round gathers the
//     group's off-home operands, and the group's transactions are
//     compiled into per-(DPU, tasklet-slot) apply programs the home
//     DPU's writeback kernel executes in batch order — guarded
//     RMWs, rollback and all — paying real kernel cycles. A group
//     whose writes span owners commits through the two-round
//     prepare/commit protocol: the host evaluates the group against the
//     gathered snapshot (the prepare decision), then the decided
//     puts/deletes run as compiled commit units in the owners'
//     writeback kernels. Only the prepare decision of multi-owner
//     groups (and pure cross-DPU reads) remains host-side.
//
// Conflicts inside one batch serialize deterministically: transactions
// that share a key one of them writes — where at least one party is
// multi-op or carries a guarded read-modify-write — execute in batch
// order (the one-tasklet-per-key rule generalized to one tasklet per
// conflict group; cross-DPU groups serialize on the host). Between
// plain single-op transactions the PR 2/3 semantics are preserved
// verbatim: each op is an independent concurrent transaction, reads of
// replicated keys spread over fresh copies, and same-key order within a
// batch is unspecified — which keeps every pre-Txn artifact
// byte-identical.

// Txn is an ordered group of operations committed atomically: all of
// its writes apply, or — when a guarded op (OpAdd/OpSub) fails — none
// do. Later ops observe earlier ops' effects within the transaction,
// and the read results are returned to the client as a unit.
type Txn struct {
	Ops []Op
}

// NewTxn builds a transaction over the given ops.
func NewTxn(ops ...Op) Txn { return Txn{Ops: ops} }

// TxnResult is the outcome of one Txn.
type TxnResult struct {
	// Results holds one OpResult per op, in order. When the transaction
	// aborted, ops after the failing guard are zero.
	Results []OpResult
	// Committed reports whether the transaction's writes applied. A
	// guarded op that fails (missing key, underflow) aborts the whole
	// transaction.
	Committed bool
	// LatencySeconds is the modeled commit latency (queue wait + batch
	// wall clock) when the transaction went through a Submitter; zero
	// for direct ApplyTxns calls.
	LatencySeconds float64
	// Err is the first store-level error the transaction hit (e.g. a
	// partition out of capacity).
	Err error
}

// txnWrite is one pending write in an evaluating transaction's overlay.
type txnWrite struct {
	val uint64
	del bool
}

// Transaction evaluation (overlay semantics, guarded aborts, pre-txn
// images for rollback) lives in evalScratch.run (scratch.go); the hot
// path reuses one evalScratch per host phase and per tasklet slot
// instead of allocating overlay maps per transaction.

// isRMW reports whether the op kind is a guarded read-modify-write.
func isRMW(k OpKind) bool { return k == OpAdd || k == OpSub }

// classifyOps is the shared owner analysis: the single DPU owning
// every key of the op group (-1 when the keys span DPUs), and whether
// the group is serializing (multi-op, or carrying a guarded RMW — the
// transactions that impose batch-order serialization on every
// transaction sharing a written key with them). Both ApplyTxns's
// conflict grouping and the lane schedulers classify through this one
// function, so the store and the scheduler cannot disagree about which
// transactions coordinate.
func classifyOps(ops []Op, owner func(uint64) int) (soleDPU int, serializing bool) {
	if len(ops) == 0 {
		return -1, false
	}
	serializing = len(ops) > 1
	soleDPU = owner(ops[0].Key)
	for _, op := range ops {
		if isRMW(op.Kind) {
			serializing = true
		}
		if soleDPU >= 0 && owner(op.Key) != soleDPU {
			soleDPU = -1
		}
	}
	return soleDPU, serializing
}

// LaneOf classifies one transaction against the store's current
// placement: LaneConfined when a single DPU owns every key (the
// transaction commits natively inside that DPU's batch kernel),
// LaneCoordinated when the keys span DPUs (it pays the CPU-coordinated
// snapshot and writeback rounds). This is the classifier NewSubmitter
// binds into lane-segregating schedulers; it shares classifyOps with
// ApplyTxns, so a batch the scheduler labels confined never
// coordinates on its own (only a placement change between admission
// and flush, or an empty transaction, can shift a lane).
// With split keys active, an OpAdd or OpSub on a split key is a
// chameleon: the split-rewrite pre-pass redirects it onto a local delta
// shard of whichever DPU the transaction already touches, so it never
// constrains the sole owner — only the transaction's other ops can
// force coordination. (A batch that also touches the key
// non-commutatively — or whose subs fail the shard-coverage check —
// suppresses the rewrite and reconciles instead, which can coordinate a
// transaction this classifier admitted as confined — the same
// admission-vs-flush caveat as a placement change.)
func (pm *PartitionedMap) LaneOf(txn Txn) Lane {
	ops := txn.Ops
	if len(ops) == 0 {
		return LaneConfined
	}
	if pm.dir != nil && pm.dir.splitCount() > 0 {
		sole := -1
		for _, op := range ops {
			if isRMW(op.Kind) && pm.dir.isSplit(op.Key) {
				continue
			}
			o := pm.owner(op.Key)
			if sole < 0 {
				sole = o
			} else if o != sole {
				return LaneCoordinated
			}
		}
		return LaneConfined
	}
	if sole, _ := classifyOps(ops, pm.owner); sole < 0 {
		return LaneCoordinated
	}
	return LaneConfined
}

// txnMeta is applyTxns' per-transaction routing analysis.
type txnMeta struct {
	// soleDPU is the single owner DPU of every key (-1 when cross).
	soleDPU int
	// serializing transactions impose batch-order serialization on
	// every transaction they share a written key with: multi-op groups
	// (their atomicity needs an order) and guarded RMW ops (their
	// outcome depends on one).
	serializing bool
	cross       bool
	coordinated bool
	// group pins on-DPU conflict groups to one tasklet (-1 ungrouped).
	group int
	// Kernel-commit classification of coordinated transactions (set by
	// classifyGroups): root is the conflict-group root, and kernelApply
	// marks members of single-owner groups — every written key owned by
	// home — whose apply programs execute in home's writeback kernel.
	kernelApply bool
	home        int
	root        int
}

// ApplyTxnsStats splits one ApplyTxns window's coordinated-commit cost
// by phase, on the modeled clock:
//
//   - GatherSeconds is the wall-clock delta of the prepare round (the
//     coalesced snapshot gather of coordinated operands).
//   - ApplySeconds is the kernel share of the commit round — the
//     cycles the compiled apply programs charge on the DPUs (plus the
//     analytic floor for unsimulated ones in sampled mode). The host
//     work that remains (multi-owner prepare decisions, pure cross-DPU
//     reads) contributes nothing here; that is the honesty caveat
//     DESIGN.md §5.4 documents.
//   - WritebackSeconds is the rest of the commit round's wall-clock
//     delta: the scatter/gather handshakes and payload of shipping the
//     programs down and the results up.
//
// All three are zero for batches with no coordinated transactions.
//
// GuardAborts counts the window's transactions that aborted on a guard
// (a missing key, or an OpSub underflow) — cleanly, with no store-level
// error. Workload abort rates are first-class observable through this
// counter: it flows through SubmitterStats into ServeResult.Stats and
// the bench artifacts.
//
// The Host*Seconds fields are different in kind from everything above:
// they are REAL machine wall-clock, not modeled time — how long the
// simulator itself spent in the window's host-side phases
// (classification and conflict grouping; unit routing through the
// execute round's analysis passes; sampled shadow-shard application;
// writeback-unit compilation). They measure simulator speed — the
// pinned host_ops_per_s_real metric of BENCH_scale.json — so they vary
// run to run and across machines, and are excluded from every
// byte-identity comparison of modeled results.
type ApplyTxnsStats struct {
	GatherSeconds    float64
	ApplySeconds     float64
	WritebackSeconds float64
	GuardAborts      int

	HostClassifySeconds float64
	HostRouteSeconds    float64
	HostShadowSeconds   float64
	HostCompileSeconds  float64
}

// buildClassK is the conflict pass, run only for batches that can
// actually conflict: per key, the first toucher in batch order, whether
// any transaction writes it, and whether a serializing party touches
// it.
func (pm *PartitionedMap) buildClassK(txns []Txn, metas []txnMeta) {
	sc := &pm.sc
	clear(sc.classK)
	for i := range txns {
		ser := metas[i].serializing
		for _, op := range txns[i].Ops {
			ci, ok := sc.classK[op.Key]
			if !ok {
				ci.firstT = int32(i)
			}
			if op.Kind != OpGet {
				ci.written = true
			}
			if ser {
				ci.anySer = true
			}
			sc.classK[op.Key] = ci
		}
	}
}

// resolveGroups runs the union-find over the built classK table and
// marks each transaction's conflict group: every toucher of a written
// key with a serializing party unions with that key's first toucher
// (duplicate unions are no-ops), and a group containing a cross-DPU
// member coordinates as a whole. It folds over the merged per-key
// table only, so serial and sharded builds resolve identically.
func (pm *PartitionedMap) resolveGroups(txns []Txn, metas []txnMeta) {
	sc := &pm.sc
	parent := ensureInts(&sc.parent, len(txns))
	for i := range parent {
		parent[i] = i
	}
	for i := range txns {
		for _, op := range txns[i].Ops {
			ci := sc.classK[op.Key]
			if !ci.written || !ci.anySer {
				continue
			}
			ra, rb := ufFind(parent, int(ci.firstT)), ufFind(parent, i)
			if ra == rb {
				continue
			}
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra // the smallest txn index roots its group
		}
	}

	// A group is coordinated when any member spans DPUs; group size
	// decides whether on-DPU members need a tasklet pin.
	size := ensureInts(&sc.size, len(txns))
	if cap(sc.coordRoot) < len(txns) {
		sc.coordRoot = make([]bool, len(txns))
	}
	coordRoot := sc.coordRoot[:len(txns)]
	for i := range txns {
		size[i], coordRoot[i] = 0, false
	}
	for i := range txns {
		r := ufFind(parent, i)
		size[r]++
		if metas[i].cross {
			coordRoot[r] = true
		}
	}
	for i := range txns {
		r := ufFind(parent, i)
		if coordRoot[r] {
			metas[i].coordinated = true
			continue
		}
		if size[r] > 1 {
			metas[i].group = r
		}
	}
}

// classifyGroups decides each coordinated conflict group's commit path
// from the owners of its write set: a group whose written keys all
// live on one DPU (and that writes at all) kernel-applies — its
// members' apply programs execute in that home DPU's writeback kernel —
// while a group writing across owners, or not writing, keeps the host
// prepare path. Only valid when classifyTxns ran its union-find, i.e.
// the batch has coordinated groups.
//
// The classification is sound because conflict groups are closed over
// shared keys: every batch toucher of a key a coordinated group writes
// is itself in the group (a serializing party touches that key by the
// union rule), so a single-owner group's writes cannot race any
// confined transaction or other group, and its off-home keys are read-
// only for the whole batch — the gathered operands stay valid through
// the commit round.
func (pm *PartitionedMap) classifyGroups(txns []Txn, metas []txnMeta, coordinated []int) {
	sc := &pm.sc
	rootOwner := ensureInts(&sc.rootOwner, len(txns))
	if cap(sc.rootHasWrite) < len(txns) {
		sc.rootHasWrite = make([]bool, len(txns))
	}
	rootHasWrite := sc.rootHasWrite[:len(txns)]
	for _, ti := range coordinated {
		r := ufFind(sc.parent, ti)
		metas[ti].root = r
		rootHasWrite[r] = false
		rootOwner[r] = -1
	}
	for _, ti := range coordinated {
		r := metas[ti].root
		for _, op := range txns[ti].Ops {
			if op.Kind == OpGet {
				continue
			}
			o := pm.owner(op.Key)
			if !rootHasWrite[r] {
				rootHasWrite[r], rootOwner[r] = true, o
			} else if rootOwner[r] != o {
				rootOwner[r] = -2 // writes span owners: multi-owner commit
			}
		}
	}
	for _, ti := range coordinated {
		r := metas[ti].root
		if rootHasWrite[r] && rootOwner[r] >= 0 {
			metas[ti].kernelApply = true
			metas[ti].home = rootOwner[r]
		}
	}
}

// gatherSources picks the gather source DPU for every key the
// coordinated transactions touch. Writes are always applied at the
// owner, but the read side may be served by any fresh replica — so the
// selector balances the per-DPU gather buckets: each key reads from
// whichever candidate (owner or fresh copy) currently holds the
// smallest bucket, preferring the owner on ties. A fresh replica on an
// already-involved DPU thereby shrinks the round's worst-case bucket,
// which is what the skew-aware transfer model charges.
func (pm *PartitionedMap) gatherSources(keys []uint64) map[uint64]int {
	sc := &pm.sc
	clear(sc.srcOf)
	clear(sc.bucket)
	srcOf, bucket := sc.srcOf, sc.bucket
	replicated := sc.replicated[:0]
	for _, k := range keys {
		if len(pm.place.Replicas(k)) == 0 {
			o := pm.owner(k)
			srcOf[k] = o
			bucket[o]++
			continue
		}
		replicated = append(replicated, k)
	}
	for _, k := range replicated {
		o := pm.owner(k)
		best := o
		for _, r := range pm.place.Replicas(k) {
			if bucket[r] < bucket[best] || (bucket[r] == bucket[best] && best != o && r < best) {
				best = r
			}
		}
		srcOf[k] = best
		bucket[best]++
	}
	sc.replicated = replicated
	return srcOf
}

// ApplyTxns executes one batch of transactions in a single quiescent
// window and returns per-transaction results in order. Single-DPU
// transactions run as native PIM-STM transactions inside their owner's
// batch kernel; cross-DPU transactions (and every transaction in their
// conflict group) are CPU-coordinated through one coalesced snapshot
// gather and one coalesced writeback scatter. Intersecting transactions
// with a serializing party commit in batch order; plain single-op
// transactions keep the concurrent per-op semantics of ApplyBatch.
// BatchSeconds reports the whole window's wall-clock delta.
func (pm *PartitionedMap) ApplyTxns(txns []Txn) ([]TxnResult, error) {
	results := make([]TxnResult, len(txns))
	totalOps := 0
	for i := range txns {
		totalOps += len(txns[i].Ops)
	}
	backing := make([]OpResult, totalOps)
	for i := range txns {
		n := len(txns[i].Ops)
		results[i].Results, backing = backing[:n:n], backing[n:]
	}
	if len(txns) == 0 {
		pm.BatchSeconds = 0
		pm.BatchLaunchSeconds, pm.BatchTransferSeconds = 0, 0
		return results, nil
	}
	before := pm.fleet.Stats()
	wallBefore := before.WallSeconds
	sc := &pm.sc
	pm.BatchPhases = ApplyTxnsStats{}

	// Split-key pre-pass (split.go): reconcile the split keys this batch
	// touches non-commutatively (paid rounds, accumulated into
	// BatchPhases), then rewrite the remaining split-key adds onto
	// per-DPU delta shards. work is txns itself whenever no split key is
	// touched, so batches without splits pay nothing.
	work := txns
	if pm.dir != nil && pm.dir.splitCount() > 0 {
		var err error
		if work, err = pm.splitRewrite(txns); err != nil {
			return nil, err
		}
	}
	classifyStart := time.Now()
	metas := pm.classifyTxns(work)

	coordinated := sc.coordinated[:0]
	for i := range metas {
		if metas[i].coordinated {
			coordinated = append(coordinated, i)
		}
	}
	sc.coordinated = coordinated

	// Commit-path classification: single-owner write sets kernel-apply,
	// everything else (multi-owner, read-only) prepares host-side.
	// classifyTxns ran its union-find whenever coordinated groups exist,
	// so the group roots are valid.
	if len(coordinated) > 0 {
		pm.classifyGroups(work, metas, coordinated)
	}
	pm.BatchPhases.HostClassifySeconds += time.Since(classifyStart).Seconds()

	// Phase 1 (prepare): one coalesced snapshot gather of every operand
	// the coordination needs, from replica-aware sources — all keys of
	// host-prepared groups, but only the off-home keys of kernel-applied
	// ones, whose home-owned state is read in the kernel where it lives.
	var srcOf map[uint64]int
	state := sc.state
	clear(state)
	if len(coordinated) > 0 {
		clear(sc.keySet)
		for _, ti := range coordinated {
			for _, op := range work[ti].Ops {
				if metas[ti].kernelApply && pm.owner(op.Key) == metas[ti].home {
					continue
				}
				sc.keySet[op.Key] = true
			}
		}
		sc.coordKeys = appendMapKeys(sc.coordKeys[:0], sc.keySet)
		srcOf = pm.gatherSources(sc.coordKeys)
		sc.perSrc.reset()
		for _, k := range sc.coordKeys {
			sc.perSrc.add(srcOf[k], k)
		}
		gatherBefore := pm.fleet.Stats().WallSeconds
		if err := pm.gatherRound(&sc.perSrc, state); err != nil {
			return nil, err
		}
		pm.BatchPhases.GatherSeconds += pm.fleet.Stats().WallSeconds - gatherBefore
	}

	// Phase 2: host-prepare the groups that stay host-side — evaluate
	// them against the snapshot in batch order, the deterministic
	// serialization the conflict rule promises. Kernel-applied groups
	// skip this entirely; their evaluation happens in the writeback
	// kernels. Dirty keys remember their pre-batch presence so a
	// net-nothing delete never pays writeback.
	clear(sc.startPresent)
	clear(sc.dirty)
	for _, ti := range coordinated {
		if metas[ti].kernelApply {
			continue
		}
		order, ok := sc.eval.run(work[ti].Ops, results[ti].Results, stateLookup(state))
		results[ti].Committed = ok
		if !ok {
			continue
		}
		for _, k := range order {
			if !sc.dirty[k] {
				_, sc.startPresent[k] = state[k]
				sc.dirty[k] = true
			}
			if w := sc.eval.writes[k]; w.del {
				delete(state, k)
			} else {
				state[k] = w.val
			}
		}
	}

	// Phase 3: the execute round — on-DPU transactions plus replica
	// maintenance, charged by the worst-case per-DPU bucket.
	clear(sc.coordWritten)
	for _, ti := range coordinated {
		for _, op := range work[ti].Ops {
			if op.Kind != OpGet {
				sc.coordWritten[op.Key] = true
			}
		}
	}
	if err := pm.executeRound(work, metas, results, sc.coordWritten); err != nil {
		return nil, err
	}

	// Phase 4 (commit): the writeback round. Kernel-applied groups
	// execute their compiled apply programs on their home DPUs, and the
	// host-prepared groups' decided records run as commit units on
	// their owners.
	if len(coordinated) > 0 {
		if err := pm.writebackRound(work, metas, results, state); err != nil {
			return nil, err
		}
	}

	// Post-batch shard-balance bookkeeping: committed rewritten ops
	// adjust the host's exact per-shard view (aborted transactions
	// applied nothing, so they adjust nothing).
	if len(sc.splitRewrites) > 0 {
		for _, rec := range sc.splitRewrites {
			if !results[rec.ti].Committed {
				continue
			}
			if rec.sub {
				pm.splitTrack[rec.skey] -= rec.val
			} else {
				pm.splitTrack[rec.skey] += rec.val
			}
		}
		sc.splitRewrites = sc.splitRewrites[:0]
	}

	// Guarded-abort accounting: a transaction that did not commit and
	// carries no store-level error aborted on a guard.
	for i := range results {
		if !results[i].Committed && results[i].Err == nil && len(txns[i].Ops) > 0 {
			pm.BatchPhases.GuardAborts++
		}
	}

	pm.TxnsApplied += len(txns)
	pm.TxnsCoordinated += len(coordinated)
	if pm.reb != nil {
		routed := sc.routed[:pm.fleet.Size()]
		for i := range routed {
			routed[i] = 0
		}
		for _, id := range sc.dpuTouched {
			routed[id] = sc.execBuckets[id]
		}
		for _, ti := range coordinated {
			for _, op := range work[ti].Ops {
				if op.Kind == OpGet {
					// A kernel-applied group's home-owned reads are never
					// gathered (the kernel serves them), so they are
					// absent from srcOf and credit the owner directly.
					if src, ok := srcOf[op.Key]; ok {
						routed[src]++
					} else {
						routed[pm.owner(op.Key)]++
					}
				} else {
					routed[pm.owner(op.Key)]++
				}
			}
		}
		// Load is attributed where it physically ran (work — a rewritten
		// add credits its shard's DPU), but the key statistics observe
		// the client's original transactions, so the Rebalancer's per-key
		// view never sees internal shard keys.
		pm.reb.observe(txns, routed)
	}
	after := pm.fleet.Stats()
	pm.BatchSeconds = after.WallSeconds - wallBefore
	pm.BatchLaunchSeconds = after.LaunchSeconds - before.LaunchSeconds
	pm.BatchTransferSeconds = after.TransferSeconds - before.TransferSeconds
	return results, nil
}

// unitKind tags what a routed unit is: a client transaction of the
// execute round, a single-op replica-maintenance shadow, a
// kernel-applied coordinated transaction of the writeback round, or a
// host-prepared commit record of a multi-owner group.
type unitKind uint8

const (
	unitClient unitKind = iota
	unitShadow
	unitApply
	unitCommit
)

// routedUnit is one unit of kernel work bucketed onto a DPU — by the
// execute round (client transactions carrying their result index,
// replica shadows with ti < 0) or by the writeback round (compiled
// apply programs and commit records). Units sharing a group id are
// pinned to one tasklet and commit in batch order.
type routedUnit struct {
	ops   []Op
	ti    int
	group int
	kind  unitKind
	// prog is the compiled apply program of a writeback-round unit; the
	// kernel decodes and executes it, charging one MRAM instruction
	// fetch per ApplyInstr.
	prog []dpu.ApplyInstr
	// rem is the scattered remote-operand table of a kernel-applied
	// unit: the gathered pre-batch values of its off-home keys.
	rem []dpu.ApplyOperand
}

// executeRound routes the on-DPU transactions (plus the replica
// maintenance their writes imply) and launches one program per involved
// DPU. It is the generalization of the PR 2/3 ApplyBatch round and is
// bit-for-bit identical to it when every transaction is a plain single
// op: same routing, same replica read spreading, same tasklet striping,
// same 24-byte-scatter/16-byte-gather worst-case-bucket charging.
func (pm *PartitionedMap) executeRound(txns []Txn, metas []txnMeta, results []TxnResult, coordWritten map[uint64]bool) error {
	routeStart := time.Now()
	sc := &pm.sc
	for _, id := range sc.dpuTouched {
		sc.perDPU[id] = sc.perDPU[id][:0]
		sc.execBuckets[id] = 0
	}
	sc.dpuTouched = sc.dpuTouched[:0]
	sc.shadowOps = sc.shadowOps[:0]
	sc.curResults = results

	// Pass 1: how do the on-DPU transactions write? lastPut is the
	// batch's final put value per key; a key whose final value cannot be
	// known statically (written by a guarded or multi-op transaction)
	// cannot be written through and goes stale instead. Deletes from
	// guarded transactions may abort, so only guard-free deletes
	// (delsCommit) invalidate copies in-round — a conditional delete
	// just stales them, and the next window's refresh either restores
	// or reaps the copies depending on what actually committed.
	//
	// Without a directory the table is skipped entirely: its only
	// consumers are the replica routing rules and the
	// write-through/refresh passes, all directory-gated, so pass 1 and
	// pass 2 fuse into one sweep and sc.keyW stays empty for the
	// store's lifetime. With a directory, a single-op fast path (or the
	// striped parallel build when the batch is large enough to shard;
	// the merge rules are in hostpar.go) builds the table, reclaiming it
	// by deleting exactly the previous batch's written keys (wroteKeys
	// lists every entry by construction) — never clearing the whole
	// map, whose capacity one huge preload batch would otherwise tax
	// every later batch with.
	hasUnits := false
	fusedRoute := false
	inlineShadow := false
	if pm.dir == nil {
		fusedRoute = true
		// When every client unit in the batch is single-op, the
		// per-shard apply order is batch order no matter where the op
		// runs, so shadow-shard ops apply inline right here — no unit
		// staging, no dispatch sweep — and only the simulated
		// representatives' units get routed. The shard's analytic op
		// count (execBuckets) and touched tracking still accrue so the
		// round spec charges exactly what the staged path would.
		if pm.sampled {
			inlineShadow = true
			for i := range txns {
				if !metas[i].coordinated && len(txns[i].Ops) > 1 {
					inlineShadow = false
					break
				}
			}
		}
		if inlineShadow {
			w := &pm.par.w[0]
			for i := range txns {
				if metas[i].coordinated {
					continue
				}
				ops := txns[i].Ops
				if len(ops) == 0 {
					results[i].Committed = true // an empty transaction commits trivially
					continue
				}
				hasUnits = true
				id := metas[i].soleDPU
				if pm.sim[id] {
					sc.addUnit(id, routedUnit{ops: ops, ti: i, group: metas[i].group})
					continue
				}
				if sc.execBuckets[id] == 0 && len(sc.perDPU[id]) == 0 {
					sc.dpuTouched = append(sc.dpuTouched, id)
				}
				sc.execBuckets[id]++
				op := &ops[0]
				if op.Kind == OpGet {
					v, ok := pm.shadow[id][op.Key]
					r := &results[i]
					r.Results[0] = OpResult{Value: v, OK: ok}
					r.Committed = true
					r.Err = nil
					continue
				}
				if !isRMW(op.Kind) {
					var res OpResult
					switch op.Kind {
					case OpPut:
						ins, err := pm.shadowPut(id, op.Key, op.Value)
						res.OK, res.Err = ins, err
					case OpDelete:
						res.OK = pm.shadowDelete(id, op.Key)
					}
					results[i].Results[0] = res
					results[i].Committed = res.Err == nil
					results[i].Err = res.Err
					continue
				}
				u := routedUnit{ops: ops, ti: i, group: metas[i].group}
				pm.shadowEvalUnit(w, id, &u, results)
			}
		} else {
			for i := range txns {
				if metas[i].coordinated {
					continue
				}
				ops := txns[i].Ops
				if len(ops) == 0 {
					results[i].Committed = true // an empty transaction commits trivially
					continue
				}
				hasUnits = true
				sc.addUnit(metas[i].soleDPU, routedUnit{ops: ops, ti: i, group: metas[i].group})
			}
		}
		sc.wroteKeys = sc.wroteKeys[:0]
	} else if workers := scaleWorkers(pm.hostWorkers, len(txns), minTxnsPerWorker); workers > 1 {
		for _, k := range sc.wroteKeys {
			delete(sc.keyW, k)
		}
		hasUnits = pm.buildKeyWPar(txns, metas, results, workers)
	} else {
		for _, k := range sc.wroteKeys {
			delete(sc.keyW, k)
		}
		wroteKeys := sc.wroteKeys[:0]
		for i := range txns {
			if metas[i].coordinated {
				continue
			}
			ops := txns[i].Ops
			if len(ops) == 0 {
				results[i].Committed = true // an empty transaction commits trivially
				continue
			}
			hasUnits = true
			if len(ops) == 1 {
				// Single op: guarded iff the op itself is an RMW, so the
				// generic two-scan fold collapses to one table update.
				op := ops[0]
				if op.Kind == OpGet {
					continue
				}
				kw := sc.keyW[op.Key]
				if !kw.wrote {
					kw.wrote = true
					wroteKeys = append(wroteKeys, op.Key)
				}
				switch op.Kind {
				case OpPut:
					kw.puts++
					kw.lastPut = op.Value
					kw.fk = fkTrue
				case OpDelete:
					kw.dels = true
					kw.delsCommit = true
				default: // OpAdd, OpSub
					kw.fk = fkFalse
				}
				sc.keyW[op.Key] = kw
				continue
			}
			foldKeyW(sc.keyW, &wroteKeys, ops)
		}
		sc.wroteKeys = wroteKeys
	}
	wroteKeys := sc.wroteKeys
	if !hasUnits {
		pm.BatchPhases.HostRouteSeconds += time.Since(routeStart).Seconds()
		return nil
	}

	// Pass 2: route the client transactions. Single-op reads of a
	// replicated key that was fresh at batch start round-robin over the
	// owner and its copies (a delete pins them to the owner); single-op
	// puts of a replicated key with siblings are pinned to one owner
	// tasklet so batch order decides the final value; conflict groups
	// are pinned as a whole.
	// putGroups allocates the tasklet-pin ids of the legacy
	// replicated-put rule; the ids are negative below -1 so they can
	// never collide with conflict-group roots (transaction indexes).
	// The fused directory-free sweep routed everything in pass 1
	// already — without a directory there are no replicas (the
	// Placement contract pins Replicas ≡ nil) and no put groups, so
	// the routing switch below is all no-ops.
	if !fusedRoute {
		clear(sc.putGroups)
		for i := range txns {
			if metas[i].coordinated || len(txns[i].Ops) == 0 {
				continue
			}
			unit := routedUnit{ops: txns[i].Ops, ti: i, group: metas[i].group}
			target := metas[i].soleDPU
			if len(unit.ops) == 1 && unit.group < 0 {
				op := unit.ops[0]
				switch op.Kind {
				case OpGet:
					if !sc.keyW[op.Key].dels {
						if reps := pm.place.Replicas(op.Key); len(reps) > 0 {
							if t := i % (len(reps) + 1); t > 0 {
								target = reps[t-1]
							}
						}
					}
				case OpPut:
					if kw := sc.keyW[op.Key]; pm.dir != nil && kw.puts > 1 && len(pm.dir.allReplicas(op.Key)) > 0 && !kw.dels {
						id, ok := sc.putGroups[op.Key]
						if !ok {
							id = -2 - len(sc.putGroups)
							sc.putGroups[op.Key] = id
						}
						unit.group = id
					}
				}
			}
			sc.addUnit(target, unit)
		}
	}

	// Pass 3: shadow ops for written replicated keys, coalesced into
	// this round. A guaranteed delete invalidates; statically-known
	// puts write through the batch's last value; everything else
	// (guarded or multi-op writers, conditional deletes) leaves the
	// copies stale for a later refresh or reap.
	dropAfter := sc.dropAfter[:0]
	freshAfter := sc.freshAfter[:0]
	staleAfter := sc.staleAfter[:0]
	clear(sc.throughPut)
	throughPut := sc.throughPut
	if pm.dir != nil {
		slices.Sort(wroteKeys)
		for _, k := range wroteKeys {
			kw := sc.keyW[k]
			copies := pm.dir.allReplicas(k)
			if len(copies) == 0 {
				continue
			}
			if kw.delsCommit {
				for _, r := range copies {
					sc.addUnit(r, routedUnit{ops: sc.shadowOp(Op{Kind: OpDelete, Key: k}), ti: -1, group: -1, kind: unitShadow})
				}
				dropAfter = append(dropAfter, k)
				continue
			}
			if kw.dels || kw.fk != fkTrue {
				staleAfter = append(staleAfter, k)
				continue
			}
			for _, r := range copies {
				sc.addUnit(r, routedUnit{ops: sc.shadowOp(Op{Kind: OpPut, Key: k, Value: kw.lastPut}), ti: -1, group: -1, kind: unitShadow})
			}
			freshAfter = append(freshAfter, k)
			throughPut[k] = true
		}

		// Pass 4: refresh the stale copies this window does not write,
		// with the owner's pre-batch value read in the quiescent window.
		for _, k := range pm.dir.staleKeys() {
			kw := sc.keyW[k]
			if kw.wrote || kw.dels || coordWritten[k] {
				continue
			}
			v, ok := pm.hostGet(pm.place.Owner(k), k)
			copies := pm.dir.allReplicas(k)
			if !ok {
				for _, r := range copies {
					sc.addUnit(r, routedUnit{ops: sc.shadowOp(Op{Kind: OpDelete, Key: k}), ti: -1, group: -1, kind: unitShadow})
				}
				dropAfter = append(dropAfter, k)
				continue
			}
			for _, r := range copies {
				sc.addUnit(r, routedUnit{ops: sc.shadowOp(Op{Kind: OpPut, Key: k, Value: v}), ti: -1, group: -1, kind: unitShadow})
			}
			freshAfter = append(freshAfter, k)
		}
	}
	sc.dropAfter, sc.freshAfter, sc.staleAfter = dropAfter, freshAfter, staleAfter

	if len(sc.dpuTouched)*8 >= len(sc.perDPU) {
		// Dense batch: rebuilding the touched set by an ascending fleet
		// scan beats sorting it (the 2500-DPU sweeps touch nearly every
		// DPU every batch). Same set, same ascending order.
		touched := sc.dpuTouched[:0]
		for id := range sc.perDPU {
			if len(sc.perDPU[id]) > 0 || sc.execBuckets[id] > 0 {
				touched = append(touched, id)
			}
		}
		sc.dpuTouched = touched
	} else {
		slices.Sort(sc.dpuTouched)
	}
	involved := sc.dpuTouched
	clear(sc.shadowFailed)

	// The round takes the slowest DPU, so charge the worst-case bucket
	// in operations — shadow maintenance included, multi-op
	// transactions counted op by op.
	maxOps, maxShadowOps := 0, 0
	for _, id := range involved {
		// Inline-applied shadow ops pre-seeded their bucket during pass
		// 1 (perDPU holds no unit for them); routed units add on top.
		ops := sc.execBuckets[id]
		for _, u := range sc.perDPU[id] {
			ops += len(u.ops)
		}
		sc.execBuckets[id] = ops
		if ops > maxOps {
			maxOps = ops
		}
		if pm.isShadow(id) && ops > maxShadowOps {
			maxShadowOps = ops
		}
	}

	spec := RoundSpec{
		Involved:     len(involved),
		ScatterBytes: 24 * maxOps,
		GatherBytes:  16 * maxOps,
		IDs:          involved,
		Program:      pm.execProgFn,
	}
	if pm.sampled {
		// Launch kernels only on the simulated representatives; the
		// worst unsimulated bucket is charged analytically through the
		// round's kernel floor (transfer costs keep counting every
		// involved DPU either way).
		simIDs := sc.simInvolved[:0]
		for _, id := range involved {
			if pm.sim[id] {
				simIDs = append(simIDs, id)
			}
		}
		sc.simInvolved = simIDs
		spec.IDs = simIDs
		spec.AnalyticKernelSeconds = dpu.EstimateKernelSeconds(pm.opCycles, maxShadowOps, 0)
	}
	pm.BatchPhases.HostRouteSeconds += time.Since(routeStart).Seconds()
	if err := pm.fleet.Round(spec); err != nil {
		return err
	}
	// Shadow-op failures on simulated DPUs were staged per kernel
	// context (tasklets of one DPU serialize cooperatively, so the
	// staging needs no lock); fold them into the batch's failure set.
	// Set-union semantics make the fold order irrelevant.
	for _, id := range spec.IDs {
		for _, k := range pm.exec[id].failed {
			sc.shadowFailed[k] = true
		}
	}
	if pm.sampled {
		// Apply the unsimulated buckets on their host-side shadow
		// shards — exact results, no cycles — then refresh the analytic
		// per-op rate from what the simulated kernels just measured so
		// the next round's floor tracks the live workload.
		shadowStart := time.Now()
		if !inlineShadow {
			if err := pm.shadowApplyEngine(involved, sc.perDPU, results); err != nil {
				return err
			}
		}
		pm.BatchPhases.HostShadowSeconds += time.Since(shadowStart).Seconds()
		var simSecs float64
		simOps := 0
		for _, id := range sc.simInvolved {
			simSecs += pm.exec[id].lastSeconds
			simOps += sc.execBuckets[id]
		}
		if simOps > 0 && simSecs > 0 {
			pm.opCycles = simSecs * dpu.DefaultClockHz / float64(simOps)
		}
	}
	shadowFailed := sc.shadowFailed
	if pm.dir != nil {
		// The shadow ops physically ran; commit the deferred directory
		// mutations, then re-stale any key whose copies or owner put
		// failed (the copy set is behind or ahead of the owner — a later
		// batch refreshes it from the owner).
		for _, k := range dropAfter {
			pm.dir.dropReplicas(k)
		}
		for _, k := range freshAfter {
			pm.dir.markFresh(k)
		}
		for _, k := range staleAfter {
			pm.dir.markStale(k)
		}
		for k := range shadowFailed {
			pm.dir.markStale(k)
		}
		for i := range txns {
			if metas[i].coordinated {
				continue
			}
			// Transactional units record store-level failures at the
			// txn level (their flush rolled back, so the owner kept its
			// old value while the copies got the write-through image);
			// single-op units record them per op.
			failed := results[i].Err != nil
			for j, op := range txns[i].Ops {
				if op.Kind == OpPut && throughPut[op.Key] &&
					(failed || results[i].Results[j].Err != nil) {
					pm.dir.markStale(op.Key)
				}
			}
		}
	}
	return nil
}

// writebackRound is the commit round of the kernel-side commit
// protocol: one fleet round whose kernels execute the batch's compiled
// apply programs. Kernel-applied groups run whole transactions —
// guards, overlay, flush rollback — near their data on their home DPU;
// multi-owner groups' host-decided puts and deletes run as commit
// units on their owners, together with the replica-copy deletes the
// commits imply. Charging follows the execute round's rules: worst
// per-DPU scatter/gather buckets on the wire (instruction stream +
// operand tables down, apply results up), real kernel cycles on
// simulated DPUs, and the calibrated apply-instruction rate — refreshed
// from every round with simulated work — for unsimulated shadow
// shards, which also run the same units host-side so outcomes stay
// exact. Replica directory maintenance is the transfer protocol
// unchanged: copies of kernel-written keys go stale (their outcome was
// decided in-kernel) and a later window refreshes or reaps them;
// copies of host-decided deletes are dropped in-round.
func (pm *PartitionedMap) writebackRound(txns []Txn, metas []txnMeta, results []TxnResult, state map[uint64]uint64) error {
	compileStart := time.Now()
	sc := &pm.sc
	for _, id := range sc.wbTouched {
		sc.wbPerDPU[id] = sc.wbPerDPU[id][:0]
		sc.wbInstrBuckets[id] = 0
	}
	sc.wbTouched = sc.wbTouched[:0]
	sc.wbInstrs = sc.wbInstrs[:0]
	sc.remOps = sc.remOps[:0]

	// Kernel-applied transactions, in batch order; members of one group
	// share the group root, which pins them to one tasklet.
	for _, ti := range sc.coordinated {
		m := &metas[ti]
		if !m.kernelApply {
			continue
		}
		u := routedUnit{ops: txns[ti].Ops, ti: ti, group: m.root, kind: unitApply}
		u.prog = sc.compileApply(u.ops)
		u.rem = sc.remOperands(u.ops, m.home, pm.owner, state)
		sc.addWbUnit(m.home, u)
	}

	// Host-prepared commit records of the multi-owner groups: puts of
	// surviving dirty keys to their owners, deletes for vanished keys
	// and the replica copies of deleted keys.
	sc.dirtyKeys = appendMapKeys(sc.dirtyKeys[:0], sc.dirty)
	dirtyKeys := sc.dirtyKeys
	wbKeys := dirtyKeys[:0]
	for _, k := range dirtyKeys {
		if _, ok := state[k]; ok || sc.startPresent[k] {
			wbKeys = append(wbKeys, k)
		}
	}
	dropAfter, staleAfter := sc.dropAfter[:0], sc.staleAfter[:0]
	for _, k := range wbKeys {
		o := pm.owner(k)
		if v, ok := state[k]; ok {
			sc.addWbUnit(o, sc.commitUnit(Op{Kind: OpPut, Key: k, Value: v}))
			if pm.dir != nil && len(pm.dir.allReplicas(k)) > 0 {
				// Copies go stale and a later batch refreshes them from
				// the owner — same protocol as transfers.
				staleAfter = append(staleAfter, k)
			}
			continue
		}
		sc.addWbUnit(o, sc.commitUnit(Op{Kind: OpDelete, Key: k}))
		if pm.dir != nil {
			for _, r := range pm.dir.allReplicas(k) {
				sc.addWbUnit(r, sc.commitUnit(Op{Kind: OpDelete, Key: k}))
			}
			dropAfter = append(dropAfter, k)
		}
	}

	// Copies of kernel-written keys: the write's outcome (guard aborts,
	// final values) was decided inside the kernel and the host does not
	// re-derive it, so the copies conservatively go stale; the next
	// window's refresh restores or reaps them from the owner.
	if pm.dir != nil {
		for _, ti := range sc.coordinated {
			if !metas[ti].kernelApply {
				continue
			}
			for _, op := range txns[ti].Ops {
				if op.Kind != OpGet && len(pm.dir.allReplicas(op.Key)) > 0 {
					staleAfter = append(staleAfter, op.Key)
				}
			}
		}
	}
	sc.dropAfter, sc.staleAfter = dropAfter, staleAfter

	if len(sc.wbTouched) == 0 {
		pm.BatchPhases.HostCompileSeconds += time.Since(compileStart).Seconds()
		return nil
	}
	before := pm.fleet.Stats()
	slices.Sort(sc.wbTouched)
	involved := sc.wbTouched
	maxScatter, maxGather, maxShadowInstrs := 0, 0, 0
	for _, id := range involved {
		bytes, instrs, gather := 0, 0, 0
		for _, u := range sc.wbPerDPU[id] {
			bytes += len(u.prog)*dpu.ApplyInstrBytes + len(u.rem)*dpu.ApplyOperandBytes
			instrs += len(u.prog) + len(u.rem)
			if u.kind == unitApply {
				gather += 16 * len(u.ops)
			}
		}
		sc.wbInstrBuckets[id] = instrs
		if bytes > maxScatter {
			maxScatter = bytes
		}
		if gather > maxGather {
			maxGather = gather
		}
		if pm.isShadow(id) && instrs > maxShadowInstrs {
			maxShadowInstrs = instrs
		}
	}
	spec := RoundSpec{
		Involved:     len(involved),
		ScatterBytes: maxScatter,
		GatherBytes:  maxGather,
		IDs:          involved,
		Program:      pm.wbProgFn,
	}
	if pm.sampled {
		simIDs := sc.wbSimIDs[:0]
		for _, id := range involved {
			if pm.sim[id] {
				simIDs = append(simIDs, id)
			}
		}
		sc.wbSimIDs = simIDs
		spec.IDs = simIDs
		spec.AnalyticKernelSeconds = dpu.EstimateApplyKernelSeconds(pm.applyCycles, maxShadowInstrs, 0)
	}
	pm.BatchPhases.HostCompileSeconds += time.Since(compileStart).Seconds()
	if err := pm.fleet.Round(spec); err != nil {
		return err
	}
	if pm.sampled {
		shadowStart := time.Now()
		if err := pm.shadowApplyEngine(involved, sc.wbPerDPU, results); err != nil {
			return err
		}
		pm.BatchPhases.HostShadowSeconds += time.Since(shadowStart).Seconds()
		var simSecs float64
		simInstrs := 0
		for _, id := range sc.wbSimIDs {
			simSecs += pm.exec[id].lastSeconds
			simInstrs += sc.wbInstrBuckets[id]
		}
		if simInstrs > 0 && simSecs > 0 {
			pm.applyCycles = simSecs * dpu.DefaultClockHz / float64(simInstrs)
		}
	}
	after := pm.fleet.Stats()
	launch := after.LaunchSeconds - before.LaunchSeconds
	pm.BatchPhases.ApplySeconds += launch
	if wb := (after.WallSeconds - before.WallSeconds) - launch; wb > 0 {
		pm.BatchPhases.WritebackSeconds += wb
	}
	for _, k := range sc.dropAfter {
		pm.dir.dropReplicas(k)
	}
	for _, k := range sc.staleAfter {
		pm.dir.markStale(k)
	}
	return nil
}

// runExecProgram and runWbProgram are the Round program values of the
// execute and writeback rounds on one simulated DPU; both run their
// unit list through runUnitProgram.
func (pm *PartitionedMap) runExecProgram(id int, d *dpu.DPU) (float64, error) {
	return pm.runUnitProgram(id, d, pm.sc.perDPU[id])
}

func (pm *PartitionedMap) runWbProgram(id int, d *dpu.DPU) (float64, error) {
	return pm.runUnitProgram(id, d, pm.sc.wbPerDPU[id])
}

// runUnitProgram stripes one DPU's routed units over tasklets by
// position — grouped units (a conflict group, or the puts of one
// replicated key) pinned to a single tasklet so they commit in batch
// order — and relaunches the DPU's persistent tasklet programs. A
// commit unit's store-level failure fails the whole round: its write
// was already decided by the prepare phase, so dropping it would
// desync the store (the historical host-side writeback was equally
// loud).
func (pm *PartitionedMap) runUnitProgram(id int, d *dpu.DPU, units []routedUnit) (float64, error) {
	e := pm.exec[id]
	e.units = units
	e.wbErr = nil
	e.failed = e.failed[:0]
	d.ResetRun()
	n := pm.tasklets
	if n > len(units) {
		n = len(units)
	}
	for ti := 0; ti < n; ti++ {
		e.lists[ti] = e.lists[ti][:0]
	}
	clear(e.groupTasklet)
	groups := 0
	for j := range units {
		if units[j].group != -1 {
			ti, ok := e.groupTasklet[units[j].group]
			if !ok {
				ti = groups % n
				e.groupTasklet[units[j].group] = ti
				groups++
			}
			e.lists[ti] = append(e.lists[ti], j)
			continue
		}
		e.lists[j%n] = append(e.lists[j%n], j)
	}
	cycles, err := d.Run(e.progs[:n])
	if err != nil {
		return 0, fmt.Errorf("host: batch on dpu %d: %w", id, err)
	}
	if e.wbErr != nil {
		return 0, fmt.Errorf("host: writeback commit on dpu %d: %w", id, e.wbErr)
	}
	secs := d.Seconds(cycles)
	e.lastSeconds = secs
	return secs, nil
}

// runTasklet is the body of one persistent tasklet program: it runs the
// slot's share of the DPU's routed units against the on-DPU map through
// the slot's reusable STM descriptor. Writeback-round units carry a
// compiled apply program: the kernel charges one MRAM instruction fetch
// per ApplyInstr, decodes the program, and for kernel-applied units
// evaluates the decoded ops through the kernelView — remote keys from
// the scattered operand table (paying the operand fetch), home keys
// from this DPU's own partition.
func (e *dpuExec) runTasklet(ti int, t *dpu.Tasklet) {
	pm := e.pm
	m := pm.maps[e.id]
	units := e.units
	results := pm.sc.curResults
	tx := e.txFor(ti, t)
	es := &e.eval[ti]
	es.view.m, es.view.tx = m, tx
	for _, j := range e.lists[ti] {
		u := units[j]
		for range u.prog {
			t.FetchApplyInstr()
		}
		if u.ti < 0 || (len(u.ops) == 1 && !isRMW(u.ops[0].Kind)) {
			// Plain single op (shadow, commit record, or a group member
			// whose sole op needs no overlay): one STM transaction per
			// op, the PR 2 path.
			op := u.ops[0]
			var res OpResult
			switch op.Kind {
			case OpGet:
				tx.Atomic(func(tx *core.Tx) {
					res.Value, res.OK = m.Get(tx, op.Key)
				})
			case OpPut:
				tx.Atomic(func(tx *core.Tx) {
					ins, err := m.Put(tx, op.Key, op.Value)
					res.OK, res.Err = ins, err
				})
			case OpDelete:
				tx.Atomic(func(tx *core.Tx) {
					res.OK = m.Delete(tx, op.Key)
				})
			}
			if u.ti >= 0 {
				results[u.ti].Results[0] = res
				results[u.ti].Committed = res.Err == nil
				results[u.ti].Err = res.Err
			} else if res.Err != nil {
				if u.kind == unitCommit {
					// Prepared writes must land; see runUnitProgram.
					// Tasklets of one DPU serialize cooperatively, so the
					// per-DPU field needs no lock.
					e.wbErr = res.Err
				} else {
					// Staged on this DPU's context (same no-lock argument
					// as wbErr); executeRound folds the stages into
					// shadowFailed after the round.
					e.failed = append(e.failed, op.Key)
				}
			}
			continue
		}
		// Transactional unit: evaluate the whole group of ops with
		// all-or-nothing semantics inside one STM transaction, then
		// flush the overlay. A flush failure (a partition out of
		// capacity) rolls the already-flushed writes back to their
		// pre-txn images, so the abort stays all-or-nothing.
		ops := u.ops
		var lk keyLookup = &es.view
		if u.kind == unitApply {
			ops = es.decodeProg(u.prog)
			es.kview.rem = u.rem
			es.kview.t = t
			lk = &es.kview
		}
		res := results[u.ti].Results
		var committed bool
		var flushErr error
		tx.Atomic(func(tx *core.Tx) {
			flushErr = nil // fresh attempt after an abort
			for r := range res {
				res[r] = OpResult{}
			}
			es.view.tx = tx
			es.kview.local = es.view
			order, ok := es.run(ops, res, lk)
			committed = ok
			if !ok {
				return
			}
			flushed := 0
			for _, k := range order {
				if es.writes[k].del {
					m.Delete(tx, k)
					flushed++
					continue
				}
				if _, err := m.Put(tx, k, es.writes[k].val); err != nil {
					flushErr = err
					break
				}
				flushed++
			}
			if flushErr == nil {
				return
			}
			for r := flushed - 1; r >= 0; r-- {
				k := order[r]
				p := es.prior[k]
				if p.del {
					m.Delete(tx, k) // the put allocated it; free it again
					continue
				}
				// Restoring an overwritten or deleted record reuses its
				// slot (the failed put allocated nothing), so this put
				// cannot itself run out of capacity.
				m.Put(tx, k, p.val)
			}
		})
		results[u.ti].Committed = committed && flushErr == nil
		results[u.ti].Err = flushErr
	}
}
