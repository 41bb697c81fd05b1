package host

import (
	"reflect"
	"slices"
	"testing"

	"pimstm/internal/core"
	"pimstm/internal/dpu"
)

func newPM(t *testing.T, dpus int) *PartitionedMap {
	t.Helper()
	pm, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: dpus, Buckets: 64, Capacity: 512, Tasklets: 4,
		STM: core.Config{Algorithm: core.NOrec},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func TestPartitionedMapValidation(t *testing.T) {
	if _, err := NewPartitionedMap(PartitionedMapConfig{Buckets: 64, Capacity: 64, Tasklets: 4}); err == nil {
		t.Fatal("zero DPUs accepted")
	}
	if _, err := NewPartitionedMap(PartitionedMapConfig{DPUs: 2, Buckets: 64, Capacity: 64}); err == nil {
		t.Fatal("zero tasklets accepted")
	}
	if _, err := NewPartitionedMap(PartitionedMapConfig{DPUs: 2, Buckets: 63, Capacity: 64, Tasklets: 4}); err == nil {
		t.Fatal("bad bucket count accepted")
	}
}

func TestPartitionedMapBatch(t *testing.T) {
	pm := newPM(t, 4)
	var ops []Op
	for k := uint64(0); k < 100; k++ {
		ops = append(ops, Op{Kind: OpPut, Key: k, Value: k * 10})
	}
	res, err := pm.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || !r.OK {
			t.Fatalf("put %d: %+v", i, r)
		}
	}
	if pm.Len() != 100 {
		t.Fatalf("len = %d", pm.Len())
	}
	if pm.BatchSeconds <= 0 {
		t.Fatal("batch time not accounted")
	}

	// Mixed batch: gets see the puts, deletes remove.
	ops = nil
	for k := uint64(0); k < 100; k += 2 {
		ops = append(ops, Op{Kind: OpGet, Key: k})
		ops = append(ops, Op{Kind: OpDelete, Key: k + 1})
	}
	res, err = pm.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ops); i += 2 {
		get, del := res[i], res[i+1]
		if !get.OK || get.Value != ops[i].Key*10 {
			t.Fatalf("get %d = %+v", ops[i].Key, get)
		}
		if !del.OK {
			t.Fatalf("delete %d missed", ops[i+1].Key)
		}
	}
	if pm.Len() != 50 {
		t.Fatalf("len after deletes = %d", pm.Len())
	}
	// Keys survive across batches on the same memory image.
	if v, ok := pm.Get(0); !ok || v != 0 {
		t.Fatalf("Get(0) = %d,%v", v, ok)
	}
	if _, ok := pm.Get(1); ok {
		t.Fatal("deleted key still present")
	}
}

func TestPartitionedMapRoutingSpread(t *testing.T) {
	pm := newPM(t, 8)
	counts := make([]int, 8)
	for k := uint64(0); k < 4000; k++ {
		counts[pm.owner(k)]++
	}
	for i, c := range counts {
		if c < 300 || c > 700 {
			t.Fatalf("partition %d holds %d of 4000 keys: router skewed", i, c)
		}
	}
}

// TestApplyBatchSkewCharged is the skew regression test: a batch whose
// keys all live on one partition must model strictly more transfer
// time than a uniform batch of equal size. Under the pre-fix model —
// average-bucket payload plus a lone DPU credited with the aggregate
// bandwidth — both batches cost exactly the same and hot partitions
// were free.
func TestApplyBatchSkewCharged(t *testing.T) {
	const n = 64
	probe := newPM(t, 4)
	byOwner := make([][]uint64, 4)
	for k := uint64(0); ; k++ {
		o := probe.owner(k)
		if len(byOwner[o]) < n {
			byOwner[o] = append(byOwner[o], k)
		}
		if len(byOwner[0]) == n && len(byOwner[1]) >= n/4 &&
			len(byOwner[2]) >= n/4 && len(byOwner[3]) >= n/4 {
			break
		}
	}
	hotKeys := byOwner[0][:n]
	var uniKeys []uint64
	for o := 0; o < 4; o++ {
		uniKeys = append(uniKeys, byOwner[o][:n/4]...)
	}

	run := func(keys []uint64) FleetStats {
		pm := newPM(t, 4)
		ops := make([]Op, len(keys))
		for i, k := range keys {
			ops[i] = Op{Kind: OpPut, Key: k, Value: k}
		}
		if _, err := pm.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		return pm.Stats()
	}
	hot := run(hotKeys)
	uni := run(uniKeys)
	if hot.TransferSeconds <= uni.TransferSeconds {
		t.Fatalf("100%%-hot batch transfers (%.6fs) must cost strictly more than uniform (%.6fs)",
			hot.TransferSeconds, uni.TransferSeconds)
	}
	// The hot batch pays exactly the worst-case-bucket payload over one
	// DPU's link; the uniform batch spreads it across four.
	wantHot := TransferSeconds(1, 24*n) + TransferSeconds(1, 16*n)
	if got := hot.TransferSeconds; got < wantHot-1e-12 || got > wantHot+1e-12 {
		t.Fatalf("hot batch transfers %.9fs, want %.9fs", got, wantHot)
	}
	wantUni := TransferSeconds(4, 24*n/4) + TransferSeconds(4, 16*n/4)
	if got := uni.TransferSeconds; got < wantUni-1e-12 || got > wantUni+1e-12 {
		t.Fatalf("uniform batch transfers %.9fs, want %.9fs", got, wantUni)
	}
}

// TestCrossDPUTransfer: the CPU-coordinated multi-DPU atomic update of
// §5's future-work sketch must conserve the total.
func TestCrossDPUTransfer(t *testing.T) {
	pm := newPM(t, 4)
	// Find two keys on different DPUs.
	a, b := uint64(1), uint64(2)
	for pm.owner(b) == pm.owner(a) {
		b++
	}
	if _, err := pm.ApplyBatch([]Op{
		{Kind: OpPut, Key: a, Value: 1000},
		{Kind: OpPut, Key: b, Value: 500},
	}); err != nil {
		t.Fatal(err)
	}
	ok, err := pm.TransferBetween(a, b, 300)
	if err != nil || !ok {
		t.Fatalf("transfer failed: %v %v", ok, err)
	}
	va, _ := pm.Get(a)
	vb, _ := pm.Get(b)
	if va != 700 || vb != 800 {
		t.Fatalf("balances = %d,%d want 700,800", va, vb)
	}
	// Underflow refused without changes.
	ok, err = pm.TransferBetween(a, b, 10000)
	if err != nil || ok {
		t.Fatalf("underflow accepted: %v %v", ok, err)
	}
	va, _ = pm.Get(a)
	vb, _ = pm.Get(b)
	if va+vb != 1500 {
		t.Fatalf("total not conserved: %d", va+vb)
	}
	// Missing key refused.
	if ok, _ := pm.TransferBetween(999999, a, 1); ok {
		t.Fatal("transfer from missing key accepted")
	}
}

// TestApplyTransfersCoalesced: a whole batch of cross-DPU moves must
// cost two fleet rounds (one coalesced gather, one coalesced commit)
// instead of four 331 µs CPU-mediated words per move.
func TestApplyTransfersCoalesced(t *testing.T) {
	pm := newPM(t, 4)
	// Sources 0..15, each paired with the next unused key ≥ 16 that
	// another DPU owns, so every move crosses DPUs.
	var ts []Transfer
	keys := []uint64{}
	next := uint64(16)
	for k := uint64(0); k < 16; k++ {
		for pm.owner(next) == pm.owner(k) {
			next++
		}
		ts = append(ts, Transfer{From: k, To: next, Amount: 100})
		keys = append(keys, k, next)
		next++
	}
	var ops []Op
	for _, k := range keys {
		ops = append(ops, Op{Kind: OpPut, Key: k, Value: 1000})
	}
	if _, err := pm.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	before := pm.Stats()

	ts = append(ts,
		Transfer{From: 0, To: 1, Amount: 100000}, // underflow: refused
		Transfer{From: 424242, To: 0, Amount: 1}, // missing key: refused
	)
	ok, err := pm.ApplyTransfers(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if !ok[i] {
			t.Fatalf("transfer %d refused", i)
		}
	}
	if ok[16] || ok[17] {
		t.Fatalf("bad transfers accepted: %v", ok[16:])
	}
	total := uint64(0)
	for _, k := range keys {
		v, present := pm.Get(k)
		if !present {
			t.Fatalf("key %d lost", k)
		}
		total += v
	}
	if total != 32*1000 {
		t.Fatalf("total not conserved: %d", total)
	}
	after := pm.Stats()
	if got := after.Rounds - before.Rounds; got != 2 {
		t.Fatalf("coalesced batch took %d fleet rounds, want 2", got)
	}
	// The coalesced window must undercut the per-word §3.1 path: 4
	// CPU-mediated words per applied move.
	perWord := float64(4*16) * InterDPUWordLatencySeconds
	if got := after.WallSeconds - before.WallSeconds; got >= perWord {
		t.Fatalf("coalesced transfers cost %.3f ms, per-word path would be %.3f ms", got*1e3, perWord*1e3)
	}
	// Every move spans two owners, so each conflict group commits
	// through the multi-owner protocol: the gather reads one 16-byte
	// record per touched key (the refused transfers' keys included)
	// from its owner, and the commit scatters one 24-byte put
	// instruction per key the committed moves changed, each charged by
	// the worst-case per-DPU bucket.
	bucketCost := func(perRecord int, keys []uint64) float64 {
		buckets := map[int]int{}
		maxRecs := 0
		for _, k := range keys {
			buckets[pm.owner(k)]++
			maxRecs = max(maxRecs, buckets[pm.owner(k)])
		}
		return TransferSeconds(len(buckets), perRecord*maxRecs)
	}
	wantXfer := bucketCost(16, append(slices.Clone(keys), 424242)) + bucketCost(dpu.ApplyInstrBytes, keys)
	if got := after.TransferSeconds - before.TransferSeconds; got < wantXfer-1e-12 || got > wantXfer+1e-12 {
		t.Fatalf("transfer window charged %.9fs, want gather + commit buckets: %.9fs", got, wantXfer)
	}

	// Empty batch is free.
	if ok, err := pm.ApplyTransfers(nil); err != nil || len(ok) != 0 {
		t.Fatalf("empty transfer batch: %v %v", ok, err)
	}
	if pm.Stats() != after {
		t.Fatal("empty transfer batch charged time")
	}

	// A batch where every transfer is refused still gathered its
	// snapshot, and BatchSeconds must reflect that window's delta.
	refused, err := pm.ApplyTransfers([]Transfer{{From: 424242, To: 0, Amount: 1}})
	if err != nil || refused[0] {
		t.Fatalf("refused-only batch: %v %v", refused, err)
	}
	if pm.BatchSeconds <= 0 {
		t.Fatal("refused-only batch did not account its gather window")
	}
}

// TestApplyTransfersMatchesGuardedTxns: ApplyTransfers is a thin
// wrapper over ApplyTxns. On two identical fresh stores, a transfer
// batch and the equivalent guarded 2-key transactions must give the
// same outcomes, the same fleet Stats deltas, the same modeled batch
// phases and the same store. The batch mixes same-DPU and cross-DPU
// moves, moves chained through shared keys, an underflow and a missing
// key.
func TestApplyTransfersMatchesGuardedTxns(t *testing.T) {
	var ts []Transfer
	for k := uint64(0); k < 16; k++ {
		ts = append(ts, Transfer{From: k, To: k + 16, Amount: 10 * (k + 1)})
	}
	ts = append(ts,
		Transfer{From: 16, To: 3, Amount: 5},     // chained through keys 16 and 3
		Transfer{From: 2, To: 9, Amount: 100000}, // underflow: refused
		Transfer{From: 424242, To: 7, Amount: 1}, // missing key: refused
	)
	txns := make([]Txn, len(ts))
	for i, tr := range ts {
		txns[i] = NewTxn(Op{Kind: OpSub, Key: tr.From, Value: tr.Amount}, Op{Kind: OpAdd, Key: tr.To, Value: tr.Amount})
	}

	fresh := func() *PartitionedMap {
		pm := newPM(t, 4)
		var load []Op
		for k := uint64(0); k < 32; k++ {
			load = append(load, Op{Kind: OpPut, Key: k, Value: 1000})
		}
		if _, err := pm.ApplyBatch(load); err != nil {
			t.Fatal(err)
		}
		return pm
	}
	modeled := func(ph ApplyTxnsStats) ApplyTxnsStats {
		ph.HostClassifySeconds, ph.HostRouteSeconds, ph.HostShadowSeconds, ph.HostCompileSeconds = 0, 0, 0, 0
		return ph
	}

	xfer, txn := fresh(), fresh()
	confined := 0
	for _, tr := range ts[:16] {
		if xfer.owner(tr.From) == xfer.owner(tr.To) {
			confined++
		}
	}
	if confined == 0 || confined == 16 {
		t.Fatalf("batch must mix same-DPU and cross-DPU moves (%d of 16 same-DPU)", confined)
	}
	xBefore, tBefore := xfer.Stats(), txn.Stats()
	ok, err := xfer.ApplyTransfers(ts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := txn.ApplyTxns(txns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		if ok[i] != res[i].Committed {
			t.Fatalf("transfer %d: ApplyTransfers ok=%v, ApplyTxns committed=%v", i, ok[i], res[i].Committed)
		}
	}
	if ok[17] || ok[18] || !ok[0] {
		t.Fatalf("unexpected outcomes: %v", ok)
	}
	if xBefore != tBefore {
		t.Fatalf("fresh stores differ before the batch: %+v vs %+v", xBefore, tBefore)
	}
	if xs, ys := xfer.Stats(), txn.Stats(); xs != ys {
		t.Fatalf("Stats after the batch differ:\ntransfers %+v\ntxns      %+v", xs, ys)
	}
	if xp, yp := modeled(xfer.BatchPhases), modeled(txn.BatchPhases); !reflect.DeepEqual(xp, yp) {
		t.Fatalf("BatchPhases differ:\ntransfers %+v\ntxns      %+v", xp, yp)
	}
	if xfer.BatchSeconds != txn.BatchSeconds || xfer.TxnsCoordinated != txn.TxnsCoordinated {
		t.Fatalf("batch window differs: %g/%d vs %g/%d",
			xfer.BatchSeconds, xfer.TxnsCoordinated, txn.BatchSeconds, txn.TxnsCoordinated)
	}
	for k := uint64(0); k < 32; k++ {
		xv, xok := xfer.Get(k)
		yv, yok := txn.Get(k)
		if xv != yv || xok != yok {
			t.Fatalf("key %d: transfers store (%d,%v), txns store (%d,%v)", k, xv, xok, yv, yok)
		}
	}
}

// TestPartitionedMapPipelineBeatsLockstep streams the same batch
// sequence through both modes: identical functional results, strictly
// smaller modeled wall clock pipelined.
func TestPartitionedMapPipelineBeatsLockstep(t *testing.T) {
	run := func(mode ExecMode) (FleetStats, []OpResult) {
		pm, err := NewPartitionedMap(PartitionedMapConfig{
			DPUs: 4, Buckets: 64, Capacity: 512, Tasklets: 4,
			STM: core.Config{Algorithm: core.NOrec}, Mode: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		var last []OpResult
		for b := 0; b < 6; b++ {
			var ops []Op
			for k := uint64(0); k < 64; k++ {
				if b == 0 {
					ops = append(ops, Op{Kind: OpPut, Key: k, Value: k})
				} else {
					ops = append(ops, Op{Kind: OpGet, Key: k})
				}
			}
			if last, err = pm.ApplyBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
		return pm.Stats(), last
	}
	lock, lockRes := run(Lockstep)
	pipe, pipeRes := run(Pipelined)
	if pipe.WallSeconds >= lock.WallSeconds {
		t.Fatalf("pipelined serving (%.6fs) must beat lockstep (%.6fs)", pipe.WallSeconds, lock.WallSeconds)
	}
	if d := pipe.LockstepSeconds - lock.WallSeconds; d > 1e-9 || d < -1e-9 {
		t.Fatalf("lockstep-equivalent mismatch: %.9f vs %.9f", pipe.LockstepSeconds, lock.WallSeconds)
	}
	for i := range lockRes {
		if lockRes[i] != pipeRes[i] {
			t.Fatalf("mode changed results at %d: %+v vs %+v", i, lockRes[i], pipeRes[i])
		}
	}
}

func TestPartitionedMapDeterministic(t *testing.T) {
	run := func() (int, float64) {
		pm := newPM(t, 3)
		var ops []Op
		for k := uint64(0); k < 60; k++ {
			ops = append(ops, Op{Kind: OpPut, Key: k, Value: k})
		}
		if _, err := pm.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		return pm.Len(), pm.BatchSeconds
	}
	l1, s1 := run()
	l2, s2 := run()
	if l1 != l2 || s1 != s2 {
		t.Fatalf("nondeterministic store: (%d,%g) vs (%d,%g)", l1, s1, l2, s2)
	}
}
