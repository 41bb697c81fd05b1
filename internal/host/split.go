package host

import (
	"fmt"
	"slices"

	"pimstm/internal/dpu"
)

// This file is split-key execution — the Rebalancer's third remedy
// beyond replicate and migrate, for hot keys dominated by commutative
// read-modify-writes (Doppel-style). A split key K keeps its base value
// at its home owner, and every DPU d of the fleet holds a local delta
// shard: a physical map entry under shardKeyFor(K, d), homed at d by a
// directory owner override, so the entire existing machinery (simulated
// kernels, sampled shadow shards, capacity bounds, worst-bucket
// charging, gather/mutate rounds) handles shards as ordinary keys.
//
// The per-batch protocol (splitRewrite):
//
//   - A batch touching K only through OpAdd rewrites each add into an
//     add on the delta shard of whichever DPU the transaction already
//     touches — the adds commute, so absorbing them locally is exact —
//     turning what would be cross-DPU coordination into confined-lane
//     kernel work. The logical value of K is home + Σ shards.
//   - A batch touching K only through OpAdd/OpSub also rewrites its
//     subs, but only when the host's exact shard-balance view
//     (splitTrack) proves every shard covers its pending subtractions —
//     subtraction commutes, and coverage rules out the underflow the
//     guard exists for, so the rewritten guard can never fire where the
//     reference guard would not (and vice versa: the logical value is
//     at least any one shard's balance). A covered sub batch pays no
//     reconciliation at all.
//   - An uncovered sub batch reconciles, and the fold provisions
//     escrow when the folded total T still covers the batch's pending
//     subs: each shard is seeded with its pending amount plus an equal
//     share of half the surplus, the home keeps the rest, and the subs
//     stay rewritten — future covered batches then run reconcile-free
//     until the escrow drains. When T cannot cover the pending subs
//     (genuine underflow is in play) the fold zeroes the shards and the
//     batch runs the key unrewritten — adds included — preserving exact
//     batch-order guard semantics.
//   - Any other non-commutative access forces a paid epoch
//     reconciliation at batch start: one coalesced gather of home +
//     shards, then one writeback-style apply round folding the deltas
//     into the home value and zeroing the shards. The key stays split.
//   - After reconciling, a batch that WRITES K non-commutatively
//     (OpPut) runs the key unrewritten — subs included, since their
//     underflow guard observes the value — preserving exact batch-order
//     semantics for the write and every add around it.
//   - A batch that only READS K (OpGet) keeps its adds rewritten: the
//     reads observe the epoch value the reconciliation just folded,
//     serializing before the batch's adds — Doppel's epoch semantics
//     for reads of split data, and a legal serializable outcome — so
//     one stray read does not collapse a whole batch of commutative
//     traffic back onto the home DPU.
//   - OpDelete reconciles like a write and additionally unsplits the
//     key (shards deleted, overrides cleared), so delete-then-add
//     within one batch keeps exact reference semantics.
//
// Reconciliation is charged honestly: the gather pays the usual 16-byte
// records, and the fold round runs compiled single-op apply programs
// through the writeback kernels (real cycles on simulated DPUs, the
// calibrated per-instruction rate for sampled shadow shards).
//
// Two documented deviations, both value-level only: the OpResult.Value
// of a rewritten add or sub is the post-op value of its local shard,
// not of the logical counter — the global sum is unknowable without
// paying the reconciliation the rewrite exists to avoid — and the
// OpResult.Value of a read sharing a batch with rewritten adds is the
// reconciled epoch value, not the batch-order running value.
// Committed/abort semantics are unchanged (split keys are always
// present at home, and so are their shards; subs only rewrite when
// coverage proves the guard outcome matches the reference's).

const (
	// shardKeyFlag tags delta-shard keys; shardKeyShift packs the DPU id
	// above the client key bits.
	shardKeyFlag  = uint64(1) << 63
	shardKeyShift = 40
	// splitKeyLimit bounds the splittable client keyspace: shard keys
	// pack the DPU id at bit 40 and the tag at bit 63, so only keys
	// below 2^40 can split. Keys at or above the limit simply stay
	// unsplit (the Rebalancer never proposes them).
	splitKeyLimit = uint64(1) << shardKeyShift
)

// shardKeyFor is the delta shard of a split key on DPU d.
func shardKeyFor(key uint64, d int) uint64 {
	return shardKeyFlag | uint64(d)<<shardKeyShift | key
}

// splitTouch flags: how a batch touches one split key.
const (
	splitTouchAdd uint8 = 1 << iota
	splitTouchRead
	splitTouchWrite
	splitTouchDelete
	splitTouchSub
)

// splitRewritable reports whether a batch's adds on a split key stay
// rewritten onto delta shards: yes unless the batch also writes the key
// non-commutatively (reads only force the epoch reconciliation, not the
// rewrite suppression). A key whose subs end up suppressed additionally
// suppresses its adds — see splitRewrite's rewriteOp — because a
// suppressed sub behaves like a write (its guard observes the home
// value, which must reflect every add before it in batch order).
func splitRewritable(f uint8) bool {
	return f&splitTouchAdd != 0 && f&(splitTouchWrite|splitTouchDelete) == 0
}

// subCandidate reports whether a batch's subs on a split key are
// rewrite candidates: the key is touched only through OpAdd/OpSub this
// batch. Any read, write or delete alongside a sub falls back to the
// suppress-and-reconcile protocol, whose batch-order guard semantics
// are exact by construction.
func subCandidate(f uint8) bool {
	return f&splitTouchSub != 0 && f&(splitTouchRead|splitTouchWrite|splitTouchDelete) == 0
}

// SplitKeys enters each key into the split state: one paid gather round
// checks presence at the home owners, then one paid scatter round seeds
// a zero-delta shard on every DPU, with a directory owner override
// homing each shard at its DPU. Requires a Directory placement and a
// fleet of at least two. Keys already split or missing from their home
// are skipped; keys outside the splittable range or still holding
// replica copies are errors — the control plane must drop a key's
// replicas before splitting it, which is what makes the
// replicate→split transition deterministic (never both states at once).
// BatchSeconds reports the window's delta.
func (pm *PartitionedMap) SplitKeys(keys []uint64) error {
	if pm.dir == nil {
		return fmt.Errorf("host: split-key execution needs a Directory placement")
	}
	n := pm.fleet.Size()
	if n < 2 {
		return fmt.Errorf("host: splitting needs at least two DPUs")
	}
	wallBefore := pm.fleet.Stats().WallSeconds
	var cands []uint64
	seen := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		if seen[k] || pm.dir.isSplit(k) {
			continue
		}
		seen[k] = true
		if k >= splitKeyLimit {
			return fmt.Errorf("host: key %d outside the splittable range (< 2^%d)", k, shardKeyShift)
		}
		if len(pm.dir.allReplicas(k)) > 0 {
			return fmt.Errorf("host: key %d still holds replica copies; drop them before splitting", k)
		}
		cands = append(cands, k)
	}
	if len(cands) == 0 {
		pm.BatchSeconds = 0
		return nil
	}
	// Splitting a missing key would manufacture it (adds guard on their
	// shard's own presence once rewritten), so absent keys are skipped,
	// like ApplyPlacement skips vanished ones.
	perSrc := make(map[int][]uint64)
	for _, k := range cands {
		perSrc[pm.owner(k)] = append(perSrc[pm.owner(k)], k)
	}
	vals, err := pm.gatherRecords(perSrc)
	if err != nil {
		return err
	}
	putOn := make(map[int][]uint64)
	shardVals := make(map[uint64]uint64)
	var split []uint64
	for _, k := range cands {
		if _, ok := vals[k]; !ok {
			continue
		}
		split = append(split, k)
		for d := 0; d < n; d++ {
			skey := shardKeyFor(k, d)
			putOn[d] = append(putOn[d], skey)
			shardVals[skey] = 0
		}
	}
	if len(split) > 0 {
		if err := pm.mutateRound(putOn, shardVals, nil); err != nil {
			return err
		}
		if pm.splitTrack == nil {
			pm.splitTrack = make(map[uint64]uint64)
		}
		for _, k := range split {
			for d := 0; d < n; d++ {
				pm.dir.setOwner(shardKeyFor(k, d), d)
				pm.splitTrack[shardKeyFor(k, d)] = 0
			}
			pm.dir.setSplit(k)
		}
	}
	pm.BatchSeconds = pm.fleet.Stats().WallSeconds - wallBefore
	return nil
}

// UnsplitKeys reconciles and leaves the split state: the pending shard
// deltas fold into each key's home value and the shards are deleted,
// all through the paid reconciliation rounds. Keys not currently split
// are skipped. BatchSeconds reports the window's delta; the per-phase
// BatchPhases attribution is left untouched (this is a control-plane
// window, not an ApplyTxns batch).
func (pm *PartitionedMap) UnsplitKeys(keys []uint64) error {
	if pm.dir == nil {
		return fmt.Errorf("host: split-key execution needs a Directory placement")
	}
	var drop []uint64
	seen := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		if !seen[k] && pm.dir.isSplit(k) {
			seen[k] = true
			drop = append(drop, k)
		}
	}
	if len(drop) == 0 {
		pm.BatchSeconds = 0
		return nil
	}
	slices.Sort(drop)
	wallBefore := pm.fleet.Stats().WallSeconds
	phases := pm.BatchPhases
	err := pm.reconcileSplitKeys(nil, drop, false)
	pm.BatchPhases = phases
	if err != nil {
		return err
	}
	pm.BatchSeconds = pm.fleet.Stats().WallSeconds - wallBefore
	return nil
}

// reconcileSplitKeys is the epoch merge: one coalesced gather of every
// key's home record and per-DPU delta shards, then one writeback-style
// apply round that folds each key's deltas into its home value and
// zeroes the shards (stay) or deletes them and clears the split state
// (drop). Both lists must hold currently-split keys. The fold units are
// single-op commit records executed by the writeback kernels — real
// apply cycles on simulated DPUs, the calibrated per-instruction rate
// for sampled shadow shards — and the phase deltas accumulate into
// BatchPhases like any other coordination round.
//
// With provision set (only from splitRewrite, whose splitPend tally is
// fresh for this batch), a staying key whose folded total covers its
// pending rewritten subtractions redistributes the total as escrow
// instead of zero-folding: each shard gets its pending amount plus an
// equal share of half the surplus, the home keeps the rest, and the key
// is marked in splitProv so the batch's subs stay rewritten. The
// splitTrack balances are set exactly at every fold either way.
func (pm *PartitionedMap) reconcileSplitKeys(stay, drop []uint64, provision bool) error {
	sc := &pm.sc
	n := pm.fleet.Size()
	if len(stay)+len(drop) == 0 {
		return nil
	}
	src := &sc.splitSrc
	src.reset()
	addKey := func(k uint64) {
		src.add(pm.owner(k), k)
		for d := 0; d < n; d++ {
			src.add(d, shardKeyFor(k, d))
		}
	}
	for _, k := range stay {
		addKey(k)
	}
	for _, k := range drop {
		addKey(k)
	}
	vals := sc.splitVals
	clear(vals)
	gatherBefore := pm.fleet.Stats().WallSeconds
	if err := pm.gatherRound(src, vals); err != nil {
		return err
	}
	pm.BatchPhases.GatherSeconds += pm.fleet.Stats().WallSeconds - gatherBefore

	// The fold round reuses the writeback-round buckets; it always runs
	// before executeRound/writebackRound touch them within a batch, and
	// both reset the buckets at entry.
	for _, id := range sc.wbTouched {
		sc.wbPerDPU[id] = sc.wbPerDPU[id][:0]
		sc.wbInstrBuckets[id] = 0
	}
	sc.wbTouched = sc.wbTouched[:0]
	sc.wbInstrs = sc.wbInstrs[:0]
	fold := func(k uint64, unsplit bool) {
		var delta uint64
		for d := 0; d < n; d++ {
			delta += vals[shardKeyFor(k, d)]
		}
		if provision && !unsplit {
			var pend uint64
			for d := 0; d < n; d++ {
				pend += sc.splitPend[shardKeyFor(k, d)]
			}
			if total := vals[k] + delta; pend > 0 && total >= pend {
				// Escrow provisioning: the total covers the batch's
				// pending subs, so instead of folding everything home the
				// fold seeds each shard with its pending amount plus an
				// equal headroom share of half the surplus. Σ alloc ≤
				// total by construction, so the home remainder never
				// underflows, and pm.Get (home + Σ shards) still reads
				// the exact logical value.
				head := (total - pend) / uint64(2*n)
				rest := total
				for d := 0; d < n; d++ {
					skey := shardKeyFor(k, d)
					alloc := sc.splitPend[skey] + head
					rest -= alloc
					if vals[skey] != alloc {
						sc.addWbUnit(d, sc.commitUnit(Op{Kind: OpPut, Key: skey, Value: alloc}))
					}
					pm.splitTrack[skey] = alloc
				}
				if vals[k] != rest {
					sc.addWbUnit(pm.owner(k), sc.commitUnit(Op{Kind: OpPut, Key: k, Value: rest}))
				}
				sc.splitProv[k] = true
				return
			}
		}
		if delta > 0 {
			// Split keys are always present at home (SplitKeys checks
			// presence, deletes unsplit first), so the fold is a put of
			// base + Σ deltas.
			sc.addWbUnit(pm.owner(k), sc.commitUnit(Op{Kind: OpPut, Key: k, Value: vals[k] + delta}))
		}
		for d := 0; d < n; d++ {
			skey := shardKeyFor(k, d)
			if unsplit {
				sc.addWbUnit(d, sc.commitUnit(Op{Kind: OpDelete, Key: skey}))
				delete(pm.splitTrack, skey)
			} else {
				if vals[skey] != 0 {
					sc.addWbUnit(d, sc.commitUnit(Op{Kind: OpPut, Key: skey, Value: 0}))
				}
				if pm.splitTrack != nil {
					pm.splitTrack[skey] = 0
				}
			}
		}
	}
	for _, k := range stay {
		fold(k, false)
	}
	for _, k := range drop {
		fold(k, true)
	}
	if err := pm.runSplitFoldRound(); err != nil {
		return err
	}
	for _, k := range drop {
		for d := 0; d < n; d++ {
			skey := shardKeyFor(k, d)
			pm.dir.setOwner(skey, hashOwner(skey, n)) // clears the override
		}
		pm.dir.clearSplit(k)
	}
	pm.SplitReconciles += len(stay) + len(drop)
	return nil
}

// runSplitFoldRound launches the reconciliation's bucketed commit units
// through the writeback kernels, charged like writebackRound: worst
// per-DPU instruction-stream scatter on the wire, real kernel cycles on
// simulated DPUs, the calibrated apply rate (refreshed from this
// round's simulated work) for shadow shards.
func (pm *PartitionedMap) runSplitFoldRound() error {
	sc := &pm.sc
	if len(sc.wbTouched) == 0 {
		return nil
	}
	before := pm.fleet.Stats()
	slices.Sort(sc.wbTouched)
	involved := sc.wbTouched
	maxScatter, maxShadowInstrs := 0, 0
	for _, id := range involved {
		bytes, instrs := 0, 0
		for _, u := range sc.wbPerDPU[id] {
			bytes += len(u.prog) * dpu.ApplyInstrBytes
			instrs += len(u.prog)
		}
		sc.wbInstrBuckets[id] = instrs
		if bytes > maxScatter {
			maxScatter = bytes
		}
		if pm.isShadow(id) && instrs > maxShadowInstrs {
			maxShadowInstrs = instrs
		}
	}
	spec := RoundSpec{
		Involved:     len(involved),
		ScatterBytes: maxScatter,
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
	if err := pm.fleet.Round(spec); err != nil {
		return err
	}
	if pm.sampled {
		for _, id := range involved {
			if pm.sim[id] {
				continue
			}
			// All fold units are single-op commit records (ti < 0), so
			// the shadow runner never touches transaction results.
			if err := pm.shadowRunUnits(&pm.par.w[0], id, sc.wbPerDPU[id], nil); err != nil {
				return err
			}
		}
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
	pm.BatchPhases.ApplySeconds += after.LaunchSeconds - before.LaunchSeconds
	if wb := (after.WallSeconds - before.WallSeconds) - (after.LaunchSeconds - before.LaunchSeconds); wb > 0 {
		pm.BatchPhases.WritebackSeconds += wb
	}
	return nil
}

// splitRewrite is the batch pre-pass of split-key execution — see the
// protocol at the top of this file. It returns the batch to execute:
// the original slice when nothing qualifies for rewriting, or a scratch
// copy whose qualifying adds target delta shards (client transactions
// are never mutated in place).
func (pm *PartitionedMap) splitRewrite(txns []Txn) ([]Txn, error) {
	sc := &pm.sc
	dir := pm.dir
	clear(sc.splitTouch)
	sc.splitRewrites = sc.splitRewrites[:0]
	touched := false
	for i := range txns {
		for _, op := range txns[i].Ops {
			if !dir.isSplit(op.Key) {
				continue
			}
			touched = true
			f := sc.splitTouch[op.Key]
			switch {
			case op.Kind == OpAdd:
				f |= splitTouchAdd
			case op.Kind == OpSub:
				f |= splitTouchSub
			case op.Kind == OpGet:
				f |= splitTouchRead
			case op.Kind == OpDelete:
				f |= splitTouchWrite | splitTouchDelete
			default:
				f |= splitTouchWrite
			}
			sc.splitTouch[op.Key] = f
		}
	}
	if !touched {
		return txns, nil
	}
	n := pm.fleet.Size()

	// Tentative rewrite view and shard targets, computed once per
	// transaction assuming every candidate add and sub rewrites. The
	// targets stay fixed even when a key's subs are later suppressed
	// (coverage failed and the fold could not provision escrow):
	// recomputing them would shift other keys' pending-sub tallies
	// between shards after coverage was already decided, which could
	// manufacture the underflow coverage just ruled out. For batches
	// without sub candidates the tentative view coincides with the
	// final one, so this pass reproduces the historical add-only
	// targets exactly.
	tentative := func(op Op) bool {
		f := sc.splitTouch[op.Key]
		switch op.Kind {
		case OpAdd:
			return splitRewritable(f)
		case OpSub:
			return subCandidate(f)
		}
		return false
	}
	anySub := false
	for _, f := range sc.splitTouch {
		if subCandidate(f) {
			anySub = true
			break
		}
	}
	targets := ensureInts(&sc.splitTargets, len(txns))
	clear(sc.splitPend)
	for i := range txns {
		// Shard target: the owner of the transaction's first op that is
		// not itself rewritten — the DPU the transaction already
		// touches, keeping it confined. Pure counter transactions
		// spread round-robin by batch position.
		target := -1
		for _, op := range txns[i].Ops {
			if tentative(op) {
				continue
			}
			target = pm.owner(op.Key)
			break
		}
		if target < 0 {
			target = i % n
		}
		targets[i] = target
		if anySub {
			for _, op := range txns[i].Ops {
				if op.Kind == OpSub && subCandidate(sc.splitTouch[op.Key]) {
					sc.splitPend[shardKeyFor(op.Key, target)] += op.Value
				}
			}
		}
	}

	// Coverage: a candidate key's subs rewrite without any reconcile
	// when every shard's tracked balance covers its pending
	// subtraction. Uncovered candidates reconcile, and the fold decides
	// between escrow provisioning (subs stay rewritten) and the exact
	// zero-fold suppression.
	clear(sc.splitSubOK)
	clear(sc.splitProv)
	if anySub {
		for k, f := range sc.splitTouch {
			if !subCandidate(f) {
				continue
			}
			covered := true
			for d := 0; d < n; d++ {
				skey := shardKeyFor(k, d)
				if p := sc.splitPend[skey]; p > 0 && pm.splitTrack[skey] < p {
					covered = false
					break
				}
			}
			if covered {
				sc.splitSubOK[k] = true
			}
		}
	}
	recon, drops := sc.splitRecon[:0], sc.splitDrop[:0]
	for k, f := range sc.splitTouch {
		switch {
		case f&splitTouchDelete != 0:
			drops = append(drops, k)
		case f&(splitTouchRead|splitTouchWrite) != 0:
			recon = append(recon, k)
		case subCandidate(f) && !sc.splitSubOK[k]:
			recon = append(recon, k)
		}
	}
	slices.Sort(recon)
	slices.Sort(drops)
	sc.splitRecon, sc.splitDrop = recon, drops
	if len(recon) > 0 || len(drops) > 0 {
		if err := pm.reconcileSplitKeys(recon, drops, true); err != nil {
			return nil, err
		}
	}
	for k := range sc.splitProv {
		sc.splitSubOK[k] = true
	}

	// The final rewrite view: adds rewrite as before unless the key's
	// subs were suppressed (a suppressed sub observes the home value,
	// so the adds before it must land there too); subs rewrite exactly
	// when covered or provisioned.
	rewriteOp := func(op Op) bool {
		f := sc.splitTouch[op.Key]
		switch op.Kind {
		case OpAdd:
			return splitRewritable(f) && (f&splitTouchSub == 0 || sc.splitSubOK[op.Key])
		case OpSub:
			return sc.splitSubOK[op.Key]
		}
		return false
	}
	rewrite := false
	for k, f := range sc.splitTouch {
		if sc.splitSubOK[k] || (splitRewritable(f) && f&splitTouchSub == 0) {
			rewrite = true
			break
		}
	}
	if !rewrite {
		return txns, nil
	}
	work := append(sc.splitTxns[:0], txns...)
	sc.splitOps = sc.splitOps[:0]
	for i := range work {
		ops := work[i].Ops
		needs := false
		for _, op := range ops {
			if rewriteOp(op) {
				needs = true
				break
			}
		}
		if !needs {
			continue
		}
		target := targets[i]
		start := len(sc.splitOps)
		for _, op := range ops {
			if rewriteOp(op) {
				skey := shardKeyFor(op.Key, target)
				sc.splitRewrites = append(sc.splitRewrites, splitRewriteRec{
					ti: int32(i), sub: op.Kind == OpSub, skey: skey, val: op.Value,
				})
				op.Key = skey
			}
			sc.splitOps = append(sc.splitOps, op)
		}
		end := len(sc.splitOps)
		work[i].Ops = sc.splitOps[start:end:end]
	}
	sc.splitTxns = work
	return work, nil
}
