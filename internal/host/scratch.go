package host

import (
	"fmt"
	"slices"

	"pimstm/internal/core"
	"pimstm/internal/dpu"
	"pimstm/internal/structures"
)

// This file holds the allocation-free machinery of the serving hot
// path: the per-batch scratch owned by PartitionedMap (maps are cleared
// with clear(), which keeps their buckets; slices are re-sliced to
// zero length), the persistent per-simulated-DPU kernel contexts, the
// host-side shadow shards of sampled-fleet mode, and the calibration
// microbench that seeds the analytic per-op cycle rate. A steady-state
// ApplyTxns batch reuses all of it and allocates almost nothing.

// dpuKeyLists buckets keys by DPU id with O(touched) reset: lists is
// fleet-sized and touched records which ids hold keys this batch.
type dpuKeyLists struct {
	lists   [][]uint64
	touched []int
}

func (p *dpuKeyLists) ensure(n int) {
	if len(p.lists) < n {
		p.lists = make([][]uint64, n)
	}
}

func (p *dpuKeyLists) reset() {
	for _, id := range p.touched {
		p.lists[id] = p.lists[id][:0]
	}
	p.touched = p.touched[:0]
}

func (p *dpuKeyLists) add(id int, k uint64) {
	if len(p.lists[id]) == 0 {
		p.touched = append(p.touched, id)
	}
	p.lists[id] = append(p.lists[id], k)
}

// sortedIDs sorts the touched ids in place and returns them.
func (p *dpuKeyLists) sortedIDs() []int {
	slices.Sort(p.touched)
	return p.touched
}

// keyLookup is the store view evalScratch.run reads through — an
// interface (with pointer- or map-shaped implementations) rather than a
// closure so the hot path does not allocate a closure per transaction.
type keyLookup interface {
	Lookup(k uint64) (uint64, bool)
}

// stateLookup reads a host-side key/value map: the coordinated
// snapshot in phase 2, or a shadow shard in sampled mode.
type stateLookup map[uint64]uint64

func (s stateLookup) Lookup(k uint64) (uint64, bool) { v, ok := s[k]; return v, ok }

// mapLookup reads the on-DPU hash map through an open STM transaction.
type mapLookup struct {
	m  *structures.Map
	tx *core.Tx
}

func (v *mapLookup) Lookup(k uint64) (uint64, bool) { return v.m.Get(v.tx, k) }

// kernelView is the store view of a kernel-side apply program: keys
// snapshotted by the prepare round resolve from the program's
// scattered operand table (paying the MRAM operand fetch), everything
// else reads the executing DPU's own partition through the open STM
// transaction. The operand table carries every off-home key of the
// program — present or not — so a remote miss can never fall through
// to a physically co-located record (e.g. a replica copy hosted by the
// same DPU).
type kernelView struct {
	local mapLookup
	rem   []dpu.ApplyOperand
	t     *dpu.Tasklet
}

func (v *kernelView) Lookup(k uint64) (uint64, bool) {
	for i := range v.rem {
		if v.rem[i].Key == k {
			v.t.FetchApplyOperand()
			return v.rem[i].Val, v.rem[i].Present
		}
	}
	return v.local.Lookup(k)
}

// remView is kernelView's host-side twin for shadow shards: the same
// operand-table-first resolution order against the shard map, with no
// cycle charges (the round charged the bucket analytically).
type remView struct {
	rem  []dpu.ApplyOperand
	next stateLookup
}

func (v *remView) Lookup(k uint64) (uint64, bool) {
	for i := range v.rem {
		if v.rem[i].Key == k {
			return v.rem[i].Val, v.rem[i].Present
		}
	}
	return v.next.Lookup(k)
}

// evalScratch is the reusable state of one transaction evaluation:
// write order, overlay and pre-txn images. One lives per (DPU, tasklet
// slot) for the parallel kernels plus one on the batch scratch for the
// host-prepare phase.
type evalScratch struct {
	order  []uint64
	writes map[uint64]txnWrite
	prior  map[uint64]txnWrite
	view   mapLookup
	// kview and decoded serve the kernel-apply path: the remote-operand
	// view and the op scratch the compiled program decodes into.
	kview   kernelView
	decoded []Op
}

// decodeProg decodes a compiled apply program into the evaluator's op
// scratch. The kernel-apply path executes the decoded program rather
// than the host's original op slice, so what runs is exactly what the
// commit round's scatter carried; compile∘decode is the identity, which
// is what keeps kernel-applied outcomes bit-identical to host-applied
// ones.
func (es *evalScratch) decodeProg(prog []dpu.ApplyInstr) []Op {
	es.decoded = es.decoded[:0]
	for _, in := range prog {
		es.decoded = append(es.decoded, opForInstr(in))
	}
	return es.decoded
}

// run executes the ordered ops of one transaction against the lookup
// view with all-or-nothing semantics: reads see earlier writes of the
// same transaction through the overlay, guarded ops (OpAdd/OpSub) abort
// the transaction when their key is missing or the subtraction would
// underflow, and nothing is applied to the view itself. It returns the
// written keys in first-write order (valid until the next run; final
// and pre-txn images stay readable in writes and prior) and whether the
// transaction commits; per-op results are written into results, which
// the caller zeroes between attempts. Deletes of keys that were never
// present net out of the write set, so a writeback never pays for
// deleting nothing.
func (es *evalScratch) run(ops []Op, results []OpResult, lk keyLookup) ([]uint64, bool) {
	if es.writes == nil {
		es.writes = make(map[uint64]txnWrite, 8)
		es.prior = make(map[uint64]txnWrite, 8)
	}
	es.order = es.order[:0]
	clear(es.writes)
	clear(es.prior)
	for j := range ops {
		op := ops[j]
		res := &results[j]
		switch op.Kind {
		case OpGet:
			res.Value, res.OK = es.read(op.Key, lk)
		case OpPut:
			_, present := es.read(op.Key, lk)
			res.OK = !present
			es.write(op.Key, txnWrite{val: op.Value}, lk)
		case OpDelete:
			_, res.OK = es.read(op.Key, lk)
			es.write(op.Key, txnWrite{del: true}, lk)
		case OpAdd:
			v, present := es.read(op.Key, lk)
			if !present {
				return nil, false
			}
			res.Value, res.OK = v+op.Value, true
			es.write(op.Key, txnWrite{val: v + op.Value}, lk)
		case OpSub:
			v, present := es.read(op.Key, lk)
			if !present || v < op.Value {
				return nil, false
			}
			res.Value, res.OK = v-op.Value, true
			es.write(op.Key, txnWrite{val: v - op.Value}, lk)
		}
	}
	out := es.order[:0]
	for _, k := range es.order {
		if es.writes[k].del && es.prior[k].del {
			delete(es.writes, k)
			continue
		}
		out = append(out, k)
	}
	return out, true
}

func (es *evalScratch) read(k uint64, lk keyLookup) (uint64, bool) {
	if w, ok := es.writes[k]; ok {
		if w.del {
			return 0, false
		}
		return w.val, true
	}
	return lk.Lookup(k)
}

func (es *evalScratch) write(k uint64, w txnWrite, lk keyLookup) {
	if _, seen := es.writes[k]; !seen {
		es.order = append(es.order, k)
		v, present := lk.Lookup(k)
		es.prior[k] = txnWrite{val: v, del: !present}
	}
	es.writes[k] = w
}

// classInfo is classifyTxns' per-key analysis: the first transaction
// touching the key (read or write, in batch order), whether any
// transaction writes it, and whether a serializing party touches it.
type classInfo struct {
	firstT  int32
	written bool
	anySer  bool
}

// keyWrite is executeRound's per-key write analysis (pass 1), the
// struct-of-maps consolidation of the seed's puts/lastPut/dels/
// delsCommit/wrote/finalKnown maps.
type keyWrite struct {
	puts    int
	lastPut uint64
	// fk mirrors the seed's finalKnown three-state: unset (the key has
	// no statically classified writer yet), known (a guard-free put
	// whose batch-final value is lastPut), or unknown (a guarded or
	// read-modify-write writer).
	fk         uint8
	dels       bool
	delsCommit bool
	wrote      bool
}

const (
	fkUnset uint8 = iota
	fkTrue
	fkFalse
)

// batchScratch is PartitionedMap's reusable per-batch state. Everything
// here is logically dead between ApplyTxns calls; it persists only so
// the next batch does not reallocate it.
type batchScratch struct {
	metas       []txnMeta
	coordinated []int

	// classifyTxns.
	classK    map[uint64]classInfo
	parent    []int
	size      []int
	coordRoot []bool

	// Coordination phases 1/2/4.
	keySet       map[uint64]bool
	coordKeys    []uint64
	srcOf        map[uint64]int
	bucket       map[int]int
	replicated   []uint64
	perSrc       dpuKeyLists
	want         map[uint64]bool
	state        map[uint64]uint64
	startPresent map[uint64]bool
	dirty        map[uint64]bool
	dirtyKeys    []uint64
	coordWritten map[uint64]bool
	eval         evalScratch

	// Kernel-side commit (the writeback round). rootHasWrite/rootOwner
	// classify each conflict group's write set (indexed by group root);
	// wbPerDPU buckets the round's apply and commit units; wbInstrs and
	// remOps are the compiled-program and operand slabs the units hold
	// capacity-clipped views into; wbInstrBuckets counts each DPU's
	// apply instructions for the analytic charge and its refresh.
	rootHasWrite   []bool
	rootOwner      []int
	wbPerDPU       [][]routedUnit
	wbTouched      []int
	wbSimIDs       []int
	wbInstrBuckets []int
	wbInstrs       []dpu.ApplyInstr
	remOps         []dpu.ApplyOperand

	// Execute round.
	perDPU       [][]routedUnit
	dpuTouched   []int
	simInvolved  []int
	keyW         map[uint64]keyWrite
	wroteKeys    []uint64
	putGroups    map[uint64]int
	dropAfter    []uint64
	freshAfter   []uint64
	staleAfter   []uint64
	throughPut   map[uint64]bool
	shadowFailed map[uint64]bool
	execBuckets  []int
	shadowOps    []Op
	curResults   []TxnResult
	routed       []int

	// Control-plane wrappers and mutateLists.
	ctlSrc, ctlPut, ctlDel dpuKeyLists
	mutInvolved            []int
	mutSimIDs              []int

	// Split-key execution (split.go). splitTouch flags how the batch
	// touches each split key; splitRecon/splitDrop list the keys forced
	// to reconcile (and, for drops, unsplit); splitSrc/splitVals are the
	// reconciliation gather scratch; splitTxns/splitOps hold the
	// rewritten batch — client transactions are never mutated in place.
	// The sub-rewrite machinery: splitTargets caches each transaction's
	// tentative shard target, splitPend tallies the batch's pending
	// rewritten subtractions per shard key, splitSubOK marks the keys
	// whose subs rewrite (covered or provisioned), splitProv the keys
	// the fold provisioned with escrow, and splitRewrites records every
	// rewritten op so committed ones update pm.splitTrack post-batch.
	splitTouch    map[uint64]uint8
	splitRecon    []uint64
	splitDrop     []uint64
	splitSrc      dpuKeyLists
	splitVals     map[uint64]uint64
	splitTxns     []Txn
	splitOps      []Op
	splitTargets  []int
	splitPend     map[uint64]uint64
	splitSubOK    map[uint64]bool
	splitProv     map[uint64]bool
	splitRewrites []splitRewriteRec
}

// splitRewriteRec records one rewritten split-key op: which transaction
// carried it, the shard key it landed on, and its signed delta. After
// the batch executes, committed records adjust the host's exact
// shard-balance view (pm.splitTrack); aborted transactions applied
// nothing and adjust nothing.
type splitRewriteRec struct {
	ti   int32
	sub  bool
	skey uint64
	val  uint64
}

func (sc *batchScratch) init(dpus int) {
	sc.classK = make(map[uint64]classInfo)
	sc.keySet = make(map[uint64]bool)
	sc.srcOf = make(map[uint64]int)
	sc.bucket = make(map[int]int)
	sc.want = make(map[uint64]bool)
	sc.state = make(map[uint64]uint64)
	sc.startPresent = make(map[uint64]bool)
	sc.dirty = make(map[uint64]bool)
	sc.coordWritten = make(map[uint64]bool)
	sc.keyW = make(map[uint64]keyWrite)
	sc.putGroups = make(map[uint64]int)
	sc.throughPut = make(map[uint64]bool)
	sc.shadowFailed = make(map[uint64]bool)
	sc.perDPU = make([][]routedUnit, dpus)
	sc.wbPerDPU = make([][]routedUnit, dpus)
	sc.execBuckets = make([]int, dpus)
	sc.wbInstrBuckets = make([]int, dpus)
	sc.routed = make([]int, dpus)
	sc.dpuTouched = make([]int, 0, dpus)
	sc.wbTouched = make([]int, 0, dpus)
	sc.wbSimIDs = make([]int, 0, dpus)
	sc.simInvolved = make([]int, 0, dpus)
	sc.mutInvolved = make([]int, 0, dpus)
	sc.mutSimIDs = make([]int, 0, dpus)
	sc.perSrc.ensure(dpus)
	sc.ctlSrc.ensure(dpus)
	sc.ctlPut.ensure(dpus)
	sc.ctlDel.ensure(dpus)
	sc.splitTouch = make(map[uint64]uint8)
	sc.splitVals = make(map[uint64]uint64)
	sc.splitSrc.ensure(dpus)
	sc.splitPend = make(map[uint64]uint64)
	sc.splitSubOK = make(map[uint64]bool)
	sc.splitProv = make(map[uint64]bool)
}

// addUnit buckets one routed unit onto a DPU, tracking touched ids for
// the O(touched) reset.
func (sc *batchScratch) addUnit(id int, u routedUnit) {
	if len(sc.perDPU[id]) == 0 {
		sc.dpuTouched = append(sc.dpuTouched, id)
	}
	sc.perDPU[id] = append(sc.perDPU[id], u)
}

// shadowOp appends one replica-maintenance op to the batch slab and
// returns a capacity-clipped one-element view of it. The slab may
// reallocate as it grows; earlier views keep pointing at the old
// backing, whose contents are immutable for the rest of the batch.
func (sc *batchScratch) shadowOp(op Op) []Op {
	sc.shadowOps = append(sc.shadowOps, op)
	n := len(sc.shadowOps)
	return sc.shadowOps[n-1 : n : n]
}

// addWbUnit buckets one writeback-round unit onto a DPU, tracking
// touched ids for the O(touched) reset.
func (sc *batchScratch) addWbUnit(id int, u routedUnit) {
	if len(sc.wbPerDPU[id]) == 0 {
		sc.wbTouched = append(sc.wbTouched, id)
	}
	sc.wbPerDPU[id] = append(sc.wbPerDPU[id], u)
}

// applyOpFor maps a host op kind to its apply-program opcode.
func applyOpFor(k OpKind) dpu.ApplyOp {
	switch k {
	case OpGet:
		return dpu.ApplyGet
	case OpPut:
		return dpu.ApplyPut
	case OpDelete:
		return dpu.ApplyDelete
	case OpAdd:
		return dpu.ApplyAdd
	default:
		return dpu.ApplySub
	}
}

// opForInstr decodes one apply instruction back into the host op the
// kernel evaluator executes.
func opForInstr(in dpu.ApplyInstr) Op {
	var k OpKind
	switch in.Op {
	case dpu.ApplyGet:
		k = OpGet
	case dpu.ApplyPut:
		k = OpPut
	case dpu.ApplyDelete:
		k = OpDelete
	case dpu.ApplyAdd:
		k = OpAdd
	default:
		k = OpSub
	}
	return Op{Kind: k, Key: in.Key, Value: in.Val}
}

// compileApply compiles one transaction's ordered ops into packed apply
// instructions on the batch slab and returns a capacity-clipped view —
// the same reallocation rule as shadowOp, so earlier programs stay
// valid as the slab grows.
func (sc *batchScratch) compileApply(ops []Op) []dpu.ApplyInstr {
	start := len(sc.wbInstrs)
	for _, op := range ops {
		sc.wbInstrs = append(sc.wbInstrs, dpu.ApplyInstr{Op: applyOpFor(op.Kind), Key: op.Key, Val: op.Value})
	}
	n := len(sc.wbInstrs)
	return sc.wbInstrs[start:n:n]
}

// remOperands builds one apply program's remote-operand table: one
// record per distinct off-home key the program touches, carrying the
// pre-batch value (and presence) the prepare round gathered. Every
// off-home key must appear — present or not — so the kernel view never
// falls through to the executing DPU's partition for a remote key.
func (sc *batchScratch) remOperands(ops []Op, home int, owner func(uint64) int, state map[uint64]uint64) []dpu.ApplyOperand {
	start := len(sc.remOps)
	for _, op := range ops {
		if owner(op.Key) == home {
			continue
		}
		dup := false
		for _, r := range sc.remOps[start:] {
			if r.Key == op.Key {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		v, ok := state[op.Key]
		sc.remOps = append(sc.remOps, dpu.ApplyOperand{Key: op.Key, Val: v, Present: ok})
	}
	n := len(sc.remOps)
	return sc.remOps[start:n:n]
}

// commitUnit builds one single-op writeback commit unit (a put or
// delete decided host-side by a multi-owner group's prepare phase),
// compiled like any other apply program.
func (sc *batchScratch) commitUnit(op Op) routedUnit {
	ops := sc.shadowOp(op)
	return routedUnit{ops: ops, ti: -1, group: -1, kind: unitCommit, prog: sc.compileApply(ops)}
}

// appendMapKeys appends the map's keys to dst and sorts the result
// ascending — sortedKeys without the per-call allocation.
func appendMapKeys[K int | uint64, V any](dst []K, m map[K]V) []K {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// ensureInts returns *s resized to n (reallocating only on growth);
// contents are unspecified and must be initialized by the caller.
func ensureInts(s *[]int, n int) []int {
	if cap(*s) < n {
		*s = make([]int, n)
	}
	*s = (*s)[:n]
	return *s
}

// ufFind is path-halving find over the parent slice.
func ufFind(parent []int, i int) int {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// dpuExec is the persistent kernel context of one simulated DPU: unit
// striping scratch, the tasklet program closures (built once — Round
// relaunches them every batch), per-slot reusable STM transaction
// descriptors and evaluation scratch, and the mutate-round program.
type dpuExec struct {
	pm *PartitionedMap
	id int

	lists        [][]int
	groupTasklet map[int]int
	progs        []func(*dpu.Tasklet)
	tx           []*core.Tx
	eval         []evalScratch

	// units is the unit list of the round in flight — the execute
	// round's client/shadow units or the writeback round's apply/commit
	// units; runUnitProgram sets it before relaunching the programs.
	units []routedUnit
	// wbErr records a commit unit's store-level failure (a partition
	// out of capacity); unlike a client transaction's per-txn error, a
	// failed commit of prepared writes fails the whole batch, matching
	// the historical host-side writeback.
	wbErr error
	// failed stages the keys whose shadow ops hit store-level failures
	// this round; executeRound merges the stages into the batch's
	// shadowFailed set after the round, replacing the old global mutex
	// (tasklets of one DPU serialize cooperatively, and each round's
	// DPUs own disjoint contexts, so the staging needs no lock).
	failed []uint64

	muProg []func(*dpu.Tasklet)
	mutErr error

	// lastSeconds is the modeled duration of this DPU's last execute
	// kernel, read by the sampled fleet's calibration refresh.
	lastSeconds float64
}

func newDPUExec(pm *PartitionedMap, id int) *dpuExec {
	e := &dpuExec{
		pm:           pm,
		id:           id,
		lists:        make([][]int, pm.tasklets),
		groupTasklet: make(map[int]int),
		progs:        make([]func(*dpu.Tasklet), pm.tasklets),
		tx:           make([]*core.Tx, pm.tasklets),
		eval:         make([]evalScratch, pm.tasklets),
	}
	for ti := range e.progs {
		ti := ti
		e.progs[ti] = func(t *dpu.Tasklet) { e.runTasklet(ti, t) }
	}
	e.muProg = []func(*dpu.Tasklet){func(t *dpu.Tasklet) { e.runMutate(t) }}
	return e
}

// txFor returns the slot's reusable transaction descriptor, rebuilding
// it only when the underlying pooled tasklet changed (a DPU Reset).
func (e *dpuExec) txFor(ti int, t *dpu.Tasklet) *core.Tx {
	tx := e.tx[ti]
	if tx == nil || tx.Tasklet() != t {
		tx = e.pm.tms[e.id].NewTx(t)
		e.tx[ti] = tx
	}
	return tx
}

// shadowGet/shadowPut/shadowDelete are the host-side shard operations
// of sampled-fleet mode. They mirror structures.Map semantics exactly,
// including the fixed node-pool capacity: an insert into a full shard
// fails like an exhausted pool, so a sampled run hits capacity errors
// on the same batches an exact run would.

func (pm *PartitionedMap) shadowGet(id int, k uint64) (uint64, bool) {
	v, ok := pm.shadow[id][k]
	return v, ok
}

func (pm *PartitionedMap) shadowPut(id int, k, v uint64) (bool, error) {
	sh := pm.shadow[id]
	if _, ok := sh[k]; ok {
		sh[k] = v
		return false, nil
	}
	if len(sh) >= pm.shadowCap {
		return false, fmt.Errorf("host: shadow partition %d pool exhausted (capacity %d)", id, pm.shadowCap)
	}
	sh[k] = v
	return true, nil
}

func (pm *PartitionedMap) shadowDelete(id int, k uint64) bool {
	sh := pm.shadow[id]
	if _, ok := sh[k]; !ok {
		return false
	}
	delete(sh, k)
	return true
}

// isShadow reports whether id's key state lives in a host-side shadow
// shard rather than a simulated DPU.
func (pm *PartitionedMap) isShadow(id int) bool { return pm.sampled && !pm.sim[id] }

// calibrateOpCycles measures the analytic per-operation kernel cycle
// rate on a scratch DPU built exactly like the fleet's: it loads a
// small working set, then runs cfg.Tasklets tasklets of mixed
// single-op STM transactions (the executeRound unit shape) and divides
// the kernel cycles by the operations executed. The sampled fleet
// seeds its charge from this rate and refreshes it from every round
// with simulated work, so the estimate tracks the live workload.
func calibrateOpCycles(cfg PartitionedMapConfig) (float64, error) {
	d := dpu.New(dpu.Config{MRAMSize: cfg.MRAMSize, Seed: 1})
	tm, err := core.New(d, cfg.STM)
	if err != nil {
		return 0, err
	}
	m, err := structures.NewMap(d, cfg.Buckets, cfg.Capacity)
	if err != nil {
		return 0, err
	}
	keys := 64
	if cfg.Capacity < keys {
		keys = cfg.Capacity
	}
	var loadErr error
	if _, err := d.Run([]func(*dpu.Tasklet){func(t *dpu.Tasklet) {
		tx := tm.NewTx(t)
		tx.Atomic(func(tx *core.Tx) {
			loadErr = nil
			for k := 0; k < keys; k++ {
				if _, err := m.Put(tx, uint64(k), uint64(k)); err != nil {
					loadErr = err
					return
				}
			}
		})
	}}); err != nil {
		return 0, err
	}
	if loadErr != nil {
		return 0, loadErr
	}
	d.ResetRun()
	n := cfg.Tasklets
	const opsPer = 16
	progs := make([]func(*dpu.Tasklet), n)
	for ti := 0; ti < n; ti++ {
		ti := ti
		progs[ti] = func(t *dpu.Tasklet) {
			tx := tm.NewTx(t)
			for j := 0; j < opsPer; j++ {
				k := uint64((ti*opsPer + j) % keys)
				if j%2 == 0 {
					tx.Atomic(func(tx *core.Tx) { m.Get(tx, k) })
				} else {
					tx.Atomic(func(tx *core.Tx) { m.Put(tx, k, k) })
				}
			}
		}
	}
	cycles, err := d.Run(progs)
	if err != nil {
		return 0, err
	}
	return float64(cycles) / float64(n*opsPer), nil
}

// calibrateApplyCycles measures the analytic per-instruction cycle
// rate of the writeback apply kernels on a scratch DPU: each tasklet
// streams an apply-shaped instruction mix — the MRAM instruction fetch
// every compiled instruction pays, then the STM mutation it decodes
// into — and the kernel cycles divide by the instructions executed.
// The sampled fleet seeds its apply-phase charge from this rate and
// refreshes it from every writeback round with simulated work.
func calibrateApplyCycles(cfg PartitionedMapConfig) (float64, error) {
	d := dpu.New(dpu.Config{MRAMSize: cfg.MRAMSize, Seed: 2})
	tm, err := core.New(d, cfg.STM)
	if err != nil {
		return 0, err
	}
	m, err := structures.NewMap(d, cfg.Buckets, cfg.Capacity)
	if err != nil {
		return 0, err
	}
	keys := 64
	if cfg.Capacity < keys {
		keys = cfg.Capacity
	}
	var loadErr error
	if _, err := d.Run([]func(*dpu.Tasklet){func(t *dpu.Tasklet) {
		tx := tm.NewTx(t)
		tx.Atomic(func(tx *core.Tx) {
			loadErr = nil
			for k := 0; k < keys; k++ {
				if _, err := m.Put(tx, uint64(k), uint64(k)); err != nil {
					loadErr = err
					return
				}
			}
		})
	}}); err != nil {
		return 0, err
	}
	if loadErr != nil {
		return 0, loadErr
	}
	d.ResetRun()
	n := cfg.Tasklets
	const instrsPer = 16
	progs := make([]func(*dpu.Tasklet), n)
	for ti := 0; ti < n; ti++ {
		ti := ti
		progs[ti] = func(t *dpu.Tasklet) {
			tx := tm.NewTx(t)
			for j := 0; j < instrsPer; j++ {
				k := uint64((ti*instrsPer + j) % keys)
				t.FetchApplyInstr()
				switch j % 3 {
				case 0:
					tx.Atomic(func(tx *core.Tx) { m.Get(tx, k) })
				case 1:
					tx.Atomic(func(tx *core.Tx) { m.Put(tx, k, k) })
				default:
					tx.Atomic(func(tx *core.Tx) {
						if v, ok := m.Get(tx, k); ok {
							m.Put(tx, k, v+1)
						}
					})
				}
			}
		}
	}
	cycles, err := d.Run(progs)
	if err != nil {
		return 0, err
	}
	return float64(cycles) / float64(n*instrsPer), nil
}
