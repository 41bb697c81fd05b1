package host

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the parallel host engine of ApplyTxns: the per-worker
// scratch arenas, the bounded dispatch helper, and the engine variants
// of the host-side batch phases (transaction classification, the
// execute round's per-key write analysis, and sampled-mode shadow-shard
// application). PartitionedMapConfig.HostParallelism sizes its worker
// pool; every batch runs through it, and every phase produces
// byte-identical modeled results at every width — the batch-order
// sequential fold a one-worker engine computes:
//
//   - Classification pass 1 writes metas[i] disjointly per transaction,
//     so striping it over workers changes nothing.
//   - The per-key fold tables (classK, keyW) are built per worker over
//     contiguous transaction stripes and merged in stripe order, which
//     reconstructs exactly the batch-order sequential fold: firstT is
//     the first stripe's first toucher, written/anySer are ORs, put
//     counts are sums, and the final-value state (fk/lastPut) is
//     last-stripe-wins among stripes that set it.
//   - Shadow shards are per-DPU-disjoint and every client transaction
//     routes to exactly one DPU, so parallel shard application writes
//     results[] disjointly; shadow-failure keys are staged per worker
//     and merged as a set union (markStale is idempotent), and a fatal
//     commit-unit failure reports the smallest failing DPU id — the
//     same id an ascending one-worker sweep stops at, because shards
//     are state-disjoint. (After a fatal error the pool may have
//     applied later shards that sweep would have skipped; the batch
//     error aborts the run either way, so that state is unobservable.)
//
// What stays serial by design: unit routing (replica read spreading
// and put-group tasklet-pin allocation are batch-order-sensitive),
// the union-find loop (it folds over the merged key table), scheduler
// state machines, and all directory mutation.

// hostWorker is one engine worker's private scratch: evaluation state
// for multi-op shadow units, the remote-operand view of kernel-applied
// units, staged shadow-failure keys, the worker's first fatal error
// (with the smallest DPU id that raised it), and the stripe-local fold
// tables of the parallel classify/keyW builds.
type hostWorker struct {
	eval   evalScratch
	rem    remView
	failed []uint64
	err    error
	errID  int

	classK map[uint64]classInfo
	anySer bool

	keyW     map[uint64]keyWrite
	wrote    []uint64
	hasUnits bool

	_ [64]byte // keep workers off each other's cache lines
}

// hostPar is the engine's dispatch state on the PartitionedMap.
type hostPar struct {
	w      []hostWorker
	cursor atomic.Int64
}

// Work-scaling floors: a parallel dispatch is only worth its goroutine
// handoffs when every worker gets at least this much work.
const (
	minShardsPerWorker = 64
	minTxnsPerWorker   = 512
	shardChunk         = 16
)

// scaleWorkers bounds the dispatch width to keep per-worker work above
// the floor (never below one worker).
func scaleWorkers(workers, items, perWorker int) int {
	if max := (items + perWorker - 1) / perWorker; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runWorkers runs f(0..n-1) on n-1 spawned goroutines plus the calling
// goroutine (worker 0), and returns when all have finished. Workers
// coordinate their work split themselves (fixed stripes or the shared
// atomic cursor).
func runWorkers(n int, f func(wid int)) {
	if n <= 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for wid := 1; wid < n; wid++ {
		go func(wid int) {
			defer wg.Done()
			f(wid)
		}(wid)
	}
	f(0)
	wg.Wait()
}

// HostWorkers reports the effective host-side worker count: the
// resolved HostParallelism.
func (pm *PartitionedMap) HostWorkers() int { return pm.hostWorkers }

// ownerFast is the engine's devirtualized owner routing: the static
// hash inlined when the placement is the stateless StaticHash (the
// common sweep configuration), the placement interface otherwise.
func (pm *PartitionedMap) ownerFast(key uint64) int {
	if n := pm.staticN; n > 0 {
		h := key
		h ^= h >> 33
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 33
		return int(h % uint64(n))
	}
	return pm.place.Owner(key)
}

// classifyTxns analyzes every transaction and resolves the batch's
// conflict groups: transactions sharing a key at least one of them
// writes — with a serializing party involved — are unioned, and a group
// containing a cross-DPU transaction is coordinated as a whole (its
// single-DPU members cannot run inside their DPU without racing the
// coordinated writes). A batch with no serializing transaction — the
// ApplyBatch hot path — takes the early exit and allocates nothing per
// transaction. The returned slice is scratch reused by the next batch.
//
// Pass 1 is striped over workers (disjoint metas writes), the conflict
// pass is built per stripe and merged in stripe order, and the
// union-find folds over the merged table. Unions with smallest-index
// roots make the partition and root ids independent of union order, so
// the groups — and therefore the tasklet pinning and the modeled
// schedule — do not depend on the worker count. Single-op transactions
// — the serving hot shape — classify without the generic per-op loop.
func (pm *PartitionedMap) classifyTxns(txns []Txn) []txnMeta {
	sc := &pm.sc
	if cap(sc.metas) < len(txns) {
		sc.metas = make([]txnMeta, len(txns))
	}
	metas := sc.metas[:len(txns)]
	n := len(txns)
	workers := scaleWorkers(pm.hostWorkers, n, minTxnsPerWorker)
	anyTxnSerializing := false
	if workers <= 1 {
		anyTxnSerializing = pm.classifyStripe(txns, metas, 0, n)
	} else {
		runWorkers(workers, func(wid int) {
			lo, hi := wid*n/workers, (wid+1)*n/workers
			pm.par.w[wid].anySer = pm.classifyStripe(txns, metas, lo, hi)
		})
		for wid := 0; wid < workers; wid++ {
			if pm.par.w[wid].anySer {
				anyTxnSerializing = true
			}
		}
	}
	// No serializing transaction ⇒ no multi-op or RMW party anywhere,
	// so no conflict groups and nothing cross-DPU: done.
	if !anyTxnSerializing {
		return metas
	}
	if workers <= 1 {
		pm.buildClassK(txns, metas)
	} else {
		pm.buildClassKPar(txns, metas, workers)
	}
	pm.resolveGroups(txns, metas)
	return metas
}

// classifyStripe fills metas[lo:hi] and reports whether the stripe
// holds a serializing transaction.
func (pm *PartitionedMap) classifyStripe(txns []Txn, metas []txnMeta, lo, hi int) bool {
	anySer := false
	for i := lo; i < hi; i++ {
		m := &metas[i]
		ops := txns[i].Ops
		if len(ops) == 1 {
			// Single op: its owner is the sole DPU and only a guarded
			// RMW serializes — no generic loop needed.
			ser := isRMW(ops[0].Kind)
			*m = txnMeta{group: -1, soleDPU: pm.ownerFast(ops[0].Key), serializing: ser}
			if ser {
				anySer = true
			}
			continue
		}
		*m = txnMeta{group: -1, soleDPU: -1}
		if len(ops) == 0 {
			continue
		}
		m.soleDPU, m.serializing = classifyOps(ops, pm.ownerFn)
		m.cross = m.soleDPU < 0
		if m.serializing {
			anySer = true
		}
	}
	return anySer
}

// buildClassKPar builds the conflict pass's per-key table from
// per-worker stripe tables merged in stripe order: the first stripe
// containing a key contributes its first toucher (the global batch
// first), and written/anySer fold as ORs.
func (pm *PartitionedMap) buildClassKPar(txns []Txn, metas []txnMeta, workers int) {
	sc := &pm.sc
	n := len(txns)
	runWorkers(workers, func(wid int) {
		w := &pm.par.w[wid]
		if w.classK == nil {
			w.classK = make(map[uint64]classInfo)
		} else {
			clear(w.classK)
		}
		for i := wid * n / workers; i < (wid+1)*n/workers; i++ {
			ser := metas[i].serializing
			for _, op := range txns[i].Ops {
				ci, ok := w.classK[op.Key]
				if !ok {
					ci.firstT = int32(i)
				}
				if op.Kind != OpGet {
					ci.written = true
				}
				if ser {
					ci.anySer = true
				}
				w.classK[op.Key] = ci
			}
		}
	})
	clear(sc.classK)
	for wid := 0; wid < workers; wid++ {
		for k, ci := range pm.par.w[wid].classK {
			ex, ok := sc.classK[k]
			if !ok {
				sc.classK[k] = ci
				continue
			}
			ex.written = ex.written || ci.written
			ex.anySer = ex.anySer || ci.anySer
			sc.classK[k] = ex
		}
	}
}

// buildKeyWPar builds the execute round's per-key write analysis from
// per-worker stripe folds merged in stripe order. The merge
// reconstructs the sequential fold exactly: put counts sum, the
// delete/wrote flags OR, and the statically-known-final-value state
// (fk, lastPut) is taken from the last stripe whose ops set it —
// fkUnset marks a stripe that never did. It also commits empty
// transactions (a disjoint per-transaction write) and reports whether
// any stripe routed units. wroteKeys order is per-stripe batch order,
// a permutation of the serial order; its only consumer sorts first.
func (pm *PartitionedMap) buildKeyWPar(txns []Txn, metas []txnMeta, results []TxnResult, workers int) bool {
	sc := &pm.sc
	n := len(txns)
	runWorkers(workers, func(wid int) {
		w := &pm.par.w[wid]
		if w.keyW == nil {
			w.keyW = make(map[uint64]keyWrite)
		} else {
			clear(w.keyW)
		}
		w.wrote = w.wrote[:0]
		w.hasUnits = false
		for i := wid * n / workers; i < (wid+1)*n/workers; i++ {
			if metas[i].coordinated {
				continue
			}
			ops := txns[i].Ops
			if len(ops) == 0 {
				results[i].Committed = true
				continue
			}
			w.hasUnits = true
			foldKeyW(w.keyW, &w.wrote, ops)
		}
	})
	wroteKeys := sc.wroteKeys[:0]
	hasUnits := false
	for wid := 0; wid < workers; wid++ {
		w := &pm.par.w[wid]
		hasUnits = hasUnits || w.hasUnits
		for _, k := range w.wrote {
			kw := w.keyW[k]
			ex, ok := sc.keyW[k]
			if !ok {
				sc.keyW[k] = kw
				wroteKeys = append(wroteKeys, k)
				continue
			}
			ex.puts += kw.puts
			ex.dels = ex.dels || kw.dels
			ex.delsCommit = ex.delsCommit || kw.delsCommit
			if kw.fk != fkUnset {
				ex.fk, ex.lastPut = kw.fk, kw.lastPut
			}
			sc.keyW[k] = ex
		}
	}
	sc.wroteKeys = wroteKeys
	return hasUnits
}

// foldKeyW folds one transaction's write ops into a keyW table — the
// per-key state machine of the execute round's pass 1, shared by the
// engine's striped and inline builds.
func foldKeyW(keyW map[uint64]keyWrite, wrote *[]uint64, ops []Op) {
	guarded := false
	for _, op := range ops {
		if isRMW(op.Kind) {
			guarded = true
		}
	}
	for _, op := range ops {
		if op.Kind == OpGet {
			continue
		}
		kw := keyW[op.Key]
		if !kw.wrote {
			kw.wrote = true
			*wrote = append(*wrote, op.Key)
		}
		switch op.Kind {
		case OpPut:
			kw.puts++
			if guarded {
				kw.fk = fkFalse
			} else {
				kw.lastPut = op.Value
				kw.fk = fkTrue
			}
		case OpDelete:
			kw.dels = true
			if guarded {
				kw.fk = fkFalse
			} else {
				kw.delsCommit = true
			}
		case OpAdd, OpSub:
			kw.fk = fkFalse
		}
		keyW[op.Key] = kw
	}
}

// shadowApplyEngine applies the unsimulated DPUs' routed units to their
// shadow shards across the worker pool. Shards are per-DPU-disjoint
// and each client transaction's results land on exactly one DPU, so
// workers never write the same result slot; shadow-failure keys are
// staged per worker and merged into the batch's failure set afterwards
// (set union — the serial set is built in a different order but is the
// same set). A commit-unit store failure is fatal for the batch: every
// worker keeps scanning and records its smallest failing DPU id, and
// the merge reports the global minimum — the id the ascending serial
// sweep would have stopped at.
func (pm *PartitionedMap) shadowApplyEngine(involved []int, per [][]routedUnit, results []TxnResult) error {
	sc := &pm.sc
	n := len(involved)
	workers := scaleWorkers(pm.hostWorkers, n, minShardsPerWorker)
	if workers <= 1 {
		w := &pm.par.w[0]
		w.failed = w.failed[:0]
		for _, id := range involved {
			if pm.sim[id] {
				continue
			}
			if err := pm.shadowRunUnits(w, id, per[id], results); err != nil {
				return err
			}
		}
		for _, k := range w.failed {
			sc.shadowFailed[k] = true
		}
		return nil
	}
	pm.par.cursor.Store(0)
	runWorkers(workers, func(wid int) {
		w := &pm.par.w[wid]
		w.failed = w.failed[:0]
		w.err, w.errID = nil, -1
		for {
			hi := int(pm.par.cursor.Add(shardChunk))
			lo := hi - shardChunk
			if lo >= n {
				return
			}
			if hi > n {
				hi = n
			}
			for _, id := range involved[lo:hi] {
				if pm.sim[id] {
					continue
				}
				if err := pm.shadowRunUnits(w, id, per[id], results); err != nil {
					if w.err == nil || id < w.errID {
						w.err, w.errID = err, id
					}
				}
			}
		}
	})
	var firstErr error
	firstID := -1
	for wid := 0; wid < workers; wid++ {
		w := &pm.par.w[wid]
		if w.err != nil && (firstErr == nil || w.errID < firstID) {
			firstErr, firstID = w.err, w.errID
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for wid := 0; wid < workers; wid++ {
		for _, k := range pm.par.w[wid].failed {
			sc.shadowFailed[k] = true
		}
	}
	return nil
}

// shadowRunUnits applies one unsimulated DPU's routed units to its
// host-side shadow shard, sequentially in routed order — batch order
// for pinned groups, one valid serialization for independent plain ops
// (whose same-key order within a batch is unspecified by contract).
// Results, guarded aborts, capacity failures and flush rollbacks are
// computed exactly as the tasklet path computes them; only the cycle
// cost is skipped, because the round already charged this bucket
// analytically. Kernel-applied units resolve their remote keys through
// the same operand-table-first view the kernels use, and a commit
// unit's store failure is as loud here as on a simulated DPU. It runs
// out of the worker's private scratch, stages failure keys on the
// worker, and takes a fast path for the plain single-op client units
// that dominate sampled serving.
func (pm *PartitionedMap) shadowRunUnits(w *hostWorker, id int, units []routedUnit, results []TxnResult) error {
	sh := pm.shadow[id]
	for ui := range units {
		u := &units[ui]
		if u.ti < 0 || (len(u.ops) == 1 && !isRMW(u.ops[0].Kind)) {
			op := &u.ops[0]
			if op.Kind == OpGet {
				// Hottest shape: a routed single read.
				v, ok := sh[op.Key]
				if u.ti >= 0 {
					r := &results[u.ti]
					r.Results[0] = OpResult{Value: v, OK: ok}
					r.Committed = true
					r.Err = nil
				}
				continue
			}
			var res OpResult
			switch op.Kind {
			case OpPut:
				ins, err := pm.shadowPut(id, op.Key, op.Value)
				res.OK, res.Err = ins, err
			case OpDelete:
				res.OK = pm.shadowDelete(id, op.Key)
			}
			if u.ti >= 0 {
				results[u.ti].Results[0] = res
				results[u.ti].Committed = res.Err == nil
				results[u.ti].Err = res.Err
			} else if res.Err != nil {
				if u.kind == unitCommit {
					return fmt.Errorf("host: writeback commit on dpu %d: %w", id, res.Err)
				}
				w.failed = append(w.failed, op.Key)
			}
			continue
		}
		pm.shadowEvalUnit(w, id, u, results)
	}
	return nil
}

// shadowEvalUnit runs one transactional unit — guards, overlay
// evaluation, flush with rollback, operand-table-first resolution for
// kernel-applied units — against a shadow shard out of the worker's
// private scratch. Shared between the routed sweep above and the fused
// route's inline apply of single-op RMWs.
func (pm *PartitionedMap) shadowEvalUnit(w *hostWorker, id int, u *routedUnit, results []TxnResult) {
	sh := pm.shadow[id]
	ops := u.ops
	var lk keyLookup = stateLookup(sh)
	if u.kind == unitApply {
		w.rem.rem = u.rem
		w.rem.next = sh
		lk = &w.rem
	}
	res := results[u.ti].Results
	for r := range res {
		res[r] = OpResult{}
	}
	order, ok := w.eval.run(ops, res, lk)
	var flushErr error
	if ok {
		flushed := 0
		for _, k := range order {
			if w.eval.writes[k].del {
				pm.shadowDelete(id, k)
				flushed++
				continue
			}
			if _, err := pm.shadowPut(id, k, w.eval.writes[k].val); err != nil {
				flushErr = err
				break
			}
			flushed++
		}
		if flushErr != nil {
			for r := flushed - 1; r >= 0; r-- {
				k := order[r]
				p := w.eval.prior[k]
				if p.del {
					pm.shadowDelete(id, k)
					continue
				}
				pm.shadowPut(id, k, p.val)
			}
		}
	}
	results[u.ti].Committed = ok && flushErr == nil
	results[u.ti].Err = flushErr
}
