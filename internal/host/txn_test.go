package host

import (
	"testing"

	"pimstm/internal/core"
	"pimstm/internal/dpu"
)

// TestTxnSingleDPUAtomicity: a transaction confined to one DPU runs as
// one native PIM-STM transaction inside the batch kernel — one fleet
// round, later ops see earlier writes, and a failing guard aborts the
// whole group.
func TestTxnSingleDPUAtomicity(t *testing.T) {
	pm := newPM(t, 4)
	keys := make([]uint64, 0, 3)
	for k := uint64(0); len(keys) < 3; k++ {
		if pm.owner(k) == 0 {
			keys = append(keys, k)
		}
	}
	if _, err := pm.ApplyBatch([]Op{{Kind: OpPut, Key: keys[0], Value: 100}}); err != nil {
		t.Fatal(err)
	}
	before := pm.Stats()

	// Read-modify-write across three same-DPU keys, with intra-txn
	// visibility: the Get sees the Put of the op before it.
	res, err := pm.ApplyTxns([]Txn{{Ops: []Op{
		{Kind: OpSub, Key: keys[0], Value: 30},
		{Kind: OpPut, Key: keys[1], Value: 30},
		{Kind: OpGet, Key: keys[1]},
		{Kind: OpDelete, Key: keys[2]},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if !r.Committed || r.Err != nil {
		t.Fatalf("single-DPU txn: %+v", r)
	}
	if r.Results[0].Value != 70 || !r.Results[0].OK {
		t.Fatalf("sub result: %+v", r.Results[0])
	}
	if !r.Results[1].OK {
		t.Fatalf("put result: %+v", r.Results[1])
	}
	if r.Results[2].Value != 30 || !r.Results[2].OK {
		t.Fatalf("get must see the txn's own put: %+v", r.Results[2])
	}
	if r.Results[3].OK {
		t.Fatalf("delete of a missing key reported present: %+v", r.Results[3])
	}
	after := pm.Stats()
	if got := after.Rounds - before.Rounds; got != 1 {
		t.Fatalf("single-DPU txn took %d rounds, want 1 (no CPU coordination)", got)
	}
	if pm.TxnsCoordinated != 0 {
		t.Fatalf("single-DPU txn counted as coordinated")
	}

	// A failing guard aborts the whole transaction: the put before it
	// must not apply.
	res, err = pm.ApplyTxns([]Txn{{Ops: []Op{
		{Kind: OpPut, Key: keys[2], Value: 999},
		{Kind: OpSub, Key: keys[0], Value: 1000}, // underflow: 70 < 1000
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Committed {
		t.Fatalf("underflowing txn committed: %+v", res[0])
	}
	if _, ok := pm.Get(keys[2]); ok {
		t.Fatal("aborted txn leaked a put")
	}
	if v, _ := pm.Get(keys[0]); v != 70 {
		t.Fatalf("aborted txn changed the guarded key: %d", v)
	}
}

// TestTxnCrossDPUCoordination: a transaction spanning DPUs rides the
// coalesced snapshot/writeback rounds — two rounds when it writes, one
// when read-only — and commits atomically across the partitions.
func TestTxnCrossDPUCoordination(t *testing.T) {
	pm := newPM(t, 4)
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
	before := pm.Stats()

	res, err := pm.ApplyTxns([]Txn{{Ops: []Op{
		{Kind: OpSub, Key: a, Value: 300},
		{Kind: OpAdd, Key: b, Value: 300},
		{Kind: OpGet, Key: b},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Committed {
		t.Fatalf("cross-DPU txn refused: %+v", res[0])
	}
	if res[0].Results[2].Value != 800 {
		t.Fatalf("get inside txn = %+v, want 800", res[0].Results[2])
	}
	after := pm.Stats()
	if got := after.Rounds - before.Rounds; got != 2 {
		t.Fatalf("cross-DPU write txn took %d rounds, want 2 (gather + writeback)", got)
	}
	if pm.TxnsCoordinated != 1 {
		t.Fatalf("coordinated count = %d", pm.TxnsCoordinated)
	}
	if va, _ := pm.Get(a); va != 700 {
		t.Fatalf("a = %d", va)
	}
	if vb, _ := pm.Get(b); vb != 800 {
		t.Fatalf("b = %d", vb)
	}

	// Read-only cross-DPU txn: one gather round, nothing written back.
	before = pm.Stats()
	res, err = pm.ApplyTxns([]Txn{{Ops: []Op{
		{Kind: OpGet, Key: a},
		{Kind: OpGet, Key: b},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Committed || res[0].Results[0].Value != 700 || res[0].Results[1].Value != 800 {
		t.Fatalf("read-only cross txn: %+v", res[0])
	}
	if got := pm.Stats().Rounds - before.Rounds; got != 1 {
		t.Fatalf("read-only cross txn took %d rounds, want 1 (gather only)", got)
	}
}

// TestTxnConflictSerialization: transactions intersecting on a written
// key serialize deterministically in batch order — the earlier one's
// effects are visible to the later one, whichever DPUs are involved.
func TestTxnConflictSerialization(t *testing.T) {
	pm := newPM(t, 4)
	k := uint64(3)
	other := uint64(4)
	for pm.owner(other) == pm.owner(k) {
		other++
	}
	if _, err := pm.ApplyBatch([]Op{
		{Kind: OpPut, Key: k, Value: 0},
		{Kind: OpPut, Key: other, Value: 0},
	}); err != nil {
		t.Fatal(err)
	}

	// Put before Sub in batch order: the Sub sees 10 and commits.
	res, err := pm.ApplyTxns([]Txn{
		{Ops: []Op{{Kind: OpPut, Key: k, Value: 10}}},
		{Ops: []Op{{Kind: OpSub, Key: k, Value: 10}, {Kind: OpAdd, Key: other, Value: 10}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Committed || !res[1].Committed {
		t.Fatalf("batch-order serialization broke: %+v / %+v", res[0], res[1])
	}
	if v, _ := pm.Get(k); v != 0 {
		t.Fatalf("k = %d after put+sub, want 0", v)
	}
	if v, _ := pm.Get(other); v != 10 {
		t.Fatalf("other = %d, want 10", v)
	}

	// Sub before Put: the Sub sees 0, aborts; the Put still applies.
	res, err = pm.ApplyTxns([]Txn{
		{Ops: []Op{{Kind: OpSub, Key: k, Value: 10}, {Kind: OpAdd, Key: other, Value: 10}}},
		{Ops: []Op{{Kind: OpPut, Key: k, Value: 10}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Committed {
		t.Fatalf("sub of an empty balance committed: %+v", res[0])
	}
	if !res[1].Committed {
		t.Fatalf("independent put dragged down: %+v", res[1])
	}
	if v, _ := pm.Get(k); v != 10 {
		t.Fatalf("k = %d, want 10", v)
	}
	if v, _ := pm.Get(other); v != 10 {
		t.Fatalf("other = %d, want 10 (aborted txn must not credit)", v)
	}
}

// TestTransferBetweenCost pins TransferBetween's modeled cost on the
// one transaction path, where it is a guarded 2-key Txn. A cross-DPU
// pair is a multi-owner group: one 16-byte record gathered from each
// owner, then one 24-byte commit instruction scattered to each — two
// fleet rounds. A same-DPU pair is confined: one execute round whose
// bucket carries both ops (24-byte scatter and 16-byte gather per op).
func TestTransferBetweenCost(t *testing.T) {
	pm := newPM(t, 4)
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
	before := pm.Stats()
	ok, err := pm.TransferBetween(a, b, 300)
	if err != nil || !ok {
		t.Fatalf("transfer: %v %v", ok, err)
	}
	after := pm.Stats()
	if got := after.Rounds - before.Rounds; got != 2 {
		t.Fatalf("transfer took %d rounds, want 2", got)
	}
	want := TransferSeconds(2, 16) + TransferSeconds(2, dpu.ApplyInstrBytes)
	if got := after.TransferSeconds - before.TransferSeconds; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("transfer charged %.9fs, gather + commit model is %.9fs", got, want)
	}
	if va, _ := pm.Get(a); va != 700 {
		t.Fatalf("a = %d, want 700", va)
	}
	if vb, _ := pm.Get(b); vb != 800 {
		t.Fatalf("b = %d, want 800", vb)
	}

	// Same-DPU pair: a confined transaction, run in one kernel.
	c := a + 1
	for pm.owner(c) != pm.owner(a) || c == a {
		c++
	}
	if _, err := pm.ApplyBatch([]Op{{Kind: OpPut, Key: c, Value: 100}}); err != nil {
		t.Fatal(err)
	}
	before = pm.Stats()
	if ok, err := pm.TransferBetween(a, c, 50); err != nil || !ok {
		t.Fatalf("same-DPU transfer: %v %v", ok, err)
	}
	after = pm.Stats()
	if got := after.Rounds - before.Rounds; got != 1 {
		t.Fatalf("same-DPU transfer took %d rounds, want 1 (execute)", got)
	}
	want = TransferSeconds(1, 24*2) + TransferSeconds(1, 16*2)
	if got := after.TransferSeconds - before.TransferSeconds; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("same-DPU transfer charged %.9fs, execute-round model is %.9fs", got, want)
	}
	if va, _ := pm.Get(a); va != 650 {
		t.Fatalf("a = %d, want 650", va)
	}
	if vc, _ := pm.Get(c); vc != 150 {
		t.Fatalf("c = %d, want 150", vc)
	}
}

// TestTxnReplicaAwareGather is the satellite cost regression: when a
// cross-DPU transaction reads keys whose fresh replicas sit on an
// already-involved DPU, the snapshot gather balances its buckets over
// the copies and models strictly less transfer time than the
// owner-only gather — with identical results.
func TestTxnReplicaAwareGather(t *testing.T) {
	run := func(replicate bool) (FleetStats, FleetStats, []TxnResult) {
		pm, _ := newDirPM(t, 4)
		hot := keysOwnedBy(pm.Placement(), 0, 3)
		cold := keysOwnedBy(pm.Placement(), 1, 1)[0]
		var load []Op
		for i, k := range hot {
			load = append(load, Op{Kind: OpPut, Key: k, Value: uint64(100 + i)})
		}
		load = append(load, Op{Kind: OpPut, Key: cold, Value: 200})
		if _, err := pm.ApplyBatch(load); err != nil {
			t.Fatal(err)
		}
		if replicate {
			// Two of the three DPU-0 keys get fresh copies on DPU 1 —
			// the DPU the transaction involves anyway.
			if err := pm.ReplicateKeys(map[uint64][]int{hot[1]: {1}, hot[2]: {1}}); err != nil {
				t.Fatal(err)
			}
		}
		before := pm.Stats()
		res, err := pm.ApplyTxns([]Txn{{Ops: []Op{
			{Kind: OpGet, Key: hot[0]},
			{Kind: OpGet, Key: hot[1]},
			{Kind: OpGet, Key: hot[2]},
			{Kind: OpGet, Key: cold},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		return before, pm.Stats(), res
	}

	beforeRep, afterRep, resRep := run(true)
	beforeOwn, afterOwn, resOwn := run(false)
	for i := range resRep[0].Results {
		if resRep[0].Results[i] != resOwn[0].Results[i] {
			t.Fatalf("replica-aware gather changed result %d: %+v vs %+v",
				i, resRep[0].Results[i], resOwn[0].Results[i])
		}
	}
	gotRep := afterRep.TransferSeconds - beforeRep.TransferSeconds
	gotOwn := afterOwn.TransferSeconds - beforeOwn.TransferSeconds
	// Owner-only: buckets {dpu0: 3, dpu1: 1} → worst case 3 records.
	// Replica-aware: one replicated read moves to DPU 1 → {2, 2}.
	wantOwn := TransferSeconds(2, 16*3)
	wantRep := TransferSeconds(2, 16*2)
	if gotOwn < wantOwn-1e-12 || gotOwn > wantOwn+1e-12 {
		t.Fatalf("owner-only gather charged %.9fs, want %.9fs", gotOwn, wantOwn)
	}
	if gotRep < wantRep-1e-12 || gotRep > wantRep+1e-12 {
		t.Fatalf("replica-aware gather charged %.9fs, want %.9fs", gotRep, wantRep)
	}
	if gotRep >= gotOwn {
		t.Fatalf("fresh replicas must shrink the gather: %.9fs vs %.9fs", gotRep, gotOwn)
	}
}

// TestTxnStaleReplicaPinsGather: only fresh copies may serve a
// coordinated read — after a write stales the copies, the gather goes
// back to the owner.
func TestTxnStaleReplicaPinsGather(t *testing.T) {
	pm, dir := newDirPM(t, 4)
	hot := keysOwnedBy(dir, 0, 2)
	cold := keysOwnedBy(dir, 1, 1)[0]
	if _, err := pm.ApplyBatch([]Op{
		{Kind: OpPut, Key: hot[0], Value: 1},
		{Kind: OpPut, Key: hot[1], Value: 2},
		{Kind: OpPut, Key: cold, Value: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if err := pm.ReplicateKeys(map[uint64][]int{hot[1]: {1}}); err != nil {
		t.Fatal(err)
	}
	// A transfer writes hot[1], staling its copy on DPU 1.
	if ok, err := pm.TransferBetween(hot[0], hot[1], 1); err != nil || !ok {
		t.Fatalf("transfer: %v %v", ok, err)
	}
	if dir.Replicas(hot[1]) != nil {
		t.Fatal("stale copy still serving")
	}
	// The coordinated read of hot[1] must come from the owner (value 3,
	// not the stale copy's 2).
	res, err := pm.ApplyTxns([]Txn{{Ops: []Op{
		{Kind: OpGet, Key: hot[1]},
		{Kind: OpGet, Key: cold},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Results[0].Value != 3 {
		t.Fatalf("coordinated read served a stale copy: %+v", res[0].Results[0])
	}
}

// TestTxnFlushFailureRollsBack: a store-level failure mid-flush (the
// partition out of capacity) must not tear the transaction — the
// already-flushed writes are rolled back to their pre-txn images, so
// Committed=false really means nothing applied.
func TestTxnFlushFailureRollsBack(t *testing.T) {
	pm, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: 2, Buckets: 64, Capacity: 4, Tasklets: 2,
		STM: core.Config{Algorithm: core.NOrec},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fill DPU 0's node pool completely.
	var keys []uint64
	for k := uint64(0); len(keys) < 4; k++ {
		if pm.owner(k) == 0 {
			keys = append(keys, k)
		}
	}
	var load []Op
	for i, k := range keys {
		load = append(load, Op{Kind: OpPut, Key: k, Value: uint64(100 + i)})
	}
	if _, err := pm.ApplyBatch(load); err != nil {
		t.Fatal(err)
	}
	newKey := keys[3] + 1
	for pm.owner(newKey) != 0 {
		newKey++
	}
	// The first put updates in place and flushes fine; the second needs
	// a node the pool cannot provide.
	res, err := pm.ApplyTxns([]Txn{{Ops: []Op{
		{Kind: OpPut, Key: keys[0], Value: 999},
		{Kind: OpPut, Key: newKey, Value: 1},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Committed || res[0].Err == nil {
		t.Fatalf("capacity failure must abort the txn: %+v", res[0])
	}
	if v, ok := pm.Get(keys[0]); !ok || v != 100 {
		t.Fatalf("torn transaction: key %d = %d,%v, want the pre-txn 100", keys[0], v, ok)
	}
	if _, ok := pm.Get(newKey); ok {
		t.Fatal("failed put left the new key behind")
	}
}

// TestTxnFlushFailureStalesWriteThrough: when a transaction that wrote
// through to replica copies fails at flush (owner rolled back, copies
// already carry the new value), the copies must go stale — reads never
// see the value that never committed.
func TestTxnFlushFailureStalesWriteThrough(t *testing.T) {
	dir := NewDirectory(4)
	pm, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: 4, Buckets: 64, Capacity: 4, Tasklets: 2,
		STM: core.Config{Algorithm: core.NOrec}, Placement: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := keysOwnedBy(dir, 0, 4)
	var load []Op
	for i, k := range keys {
		load = append(load, Op{Kind: OpPut, Key: k, Value: uint64(100 + i)})
	}
	if _, err := pm.ApplyBatch(load); err != nil {
		t.Fatal(err)
	}
	if err := pm.ReplicateKeys(map[uint64][]int{keys[0]: {1}}); err != nil {
		t.Fatal(err)
	}
	newKey := keys[3] + 1
	for pm.owner(newKey) != 0 {
		newKey++
	}
	res, err := pm.ApplyTxns([]Txn{{Ops: []Op{
		{Kind: OpPut, Key: keys[0], Value: 999},
		{Kind: OpPut, Key: newKey, Value: 1},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Committed {
		t.Fatalf("capacity failure committed: %+v", res[0])
	}
	// Every read — this batch and the next — must see the pre-txn
	// value; a fresh copy carrying 999 would leak through round-robin.
	for round := 0; round < 2; round++ {
		got, err := pm.ApplyBatch([]Op{
			{Kind: OpGet, Key: keys[0]}, {Kind: OpGet, Key: keys[0]}, {Kind: OpGet, Key: keys[0]},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			if !r.OK || r.Value != 100 {
				t.Fatalf("round %d get %d = %+v, want the committed 100", round, i, r)
			}
		}
	}
}

// TestTxnAbortedDeleteKeepsReplicas: a delete inside a transaction that
// aborts on a guard must not invalidate the key's replica copies — the
// copies go stale (conservative) and are refreshed, not destroyed.
func TestTxnAbortedDeleteKeepsReplicas(t *testing.T) {
	pm, dir := newDirPM(t, 4)
	keys := keysOwnedBy(dir, 0, 2)
	hot, missing := keys[0], keys[1]
	if _, err := pm.ApplyBatch([]Op{{Kind: OpPut, Key: hot, Value: 42}}); err != nil {
		t.Fatal(err)
	}
	if err := pm.ReplicateKeys(map[uint64][]int{hot: {1, 2}}); err != nil {
		t.Fatal(err)
	}
	res, err := pm.ApplyTxns([]Txn{{Ops: []Op{
		{Kind: OpDelete, Key: hot},
		{Kind: OpSub, Key: missing, Value: 1}, // guard fails: txn aborts
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Committed {
		t.Fatalf("aborted delete committed: %+v", res[0])
	}
	if v, ok := pm.Get(hot); !ok || v != 42 {
		t.Fatalf("aborted delete removed the key: %d,%v", v, ok)
	}
	if got := dir.allReplicas(hot); len(got) != 2 {
		t.Fatalf("aborted delete destroyed the replicas: %v", got)
	}
	// A refresh batch restores the copies to fresh service.
	if _, err := pm.ApplyBatch([]Op{{Kind: OpGet, Key: hot}}); err != nil {
		t.Fatal(err)
	}
	if got := dir.Replicas(hot); len(got) != 2 {
		t.Fatalf("copies not refreshed after the aborted delete: %v", got)
	}
	got, err := pm.ApplyBatch([]Op{{Kind: OpGet, Key: hot}, {Kind: OpGet, Key: hot}, {Kind: OpGet, Key: hot}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if !r.OK || r.Value != 42 {
			t.Fatalf("replicated get %d = %+v", i, r)
		}
	}
}

// TestApplyTxnsDeterministic: mixed single-DPU and cross-DPU batches
// are a pure function of their input.
func TestApplyTxnsDeterministic(t *testing.T) {
	run := func() (int, float64) {
		pm := newPM(t, 3)
		var load []Op
		for k := uint64(0); k < 40; k++ {
			load = append(load, Op{Kind: OpPut, Key: k, Value: 100})
		}
		if _, err := pm.ApplyBatch(load); err != nil {
			t.Fatal(err)
		}
		txns := []Txn{
			{Ops: []Op{{Kind: OpGet, Key: 1}}},
			{Ops: []Op{{Kind: OpSub, Key: 2, Value: 5}, {Kind: OpAdd, Key: 30, Value: 5}}},
			{Ops: []Op{{Kind: OpPut, Key: 3, Value: 7}}},
			{Ops: []Op{{Kind: OpDelete, Key: 4}, {Kind: OpPut, Key: 5, Value: 9}}},
		}
		if _, err := pm.ApplyTxns(txns); err != nil {
			t.Fatal(err)
		}
		return pm.Len(), pm.BatchSeconds
	}
	l1, s1 := run()
	l2, s2 := run()
	if l1 != l2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%d,%g) vs (%d,%g)", l1, s1, l2, s2)
	}
}

// TestApplyTxnsEmpty: an empty batch and empty transactions are free
// and trivially committed.
func TestApplyTxnsEmpty(t *testing.T) {
	pm := newPM(t, 2)
	res, err := pm.ApplyTxns(nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v %v", res, err)
	}
	if pm.BatchSeconds != 0 {
		t.Fatal("empty batch charged time")
	}
	res, err = pm.ApplyTxns([]Txn{{}})
	if err != nil || len(res) != 1 {
		t.Fatalf("empty txn: %v %v", res, err)
	}
}

// TestKernelCommitProtocol pins the kernel-side commit's observable
// protocol: a conflict group whose write set lives on one DPU takes the
// kernel-apply fast path (gather + commit round, apply cycles charged
// on-DPU), guard aborts roll back inside the kernel, a group writing
// across owners pays the same two rounds through the prepare/commit
// protocol.
func TestKernelCommitProtocol(t *testing.T) {
	pm := newPM(t, 4)
	// w and w2 share an owner (the write set's home); r lives elsewhere
	// (the cross-DPU read that forces coordination).
	w := uint64(0)
	home := pm.owner(w)
	w2, r := w, w
	for w2 == w || pm.owner(w2) != home {
		w2++
	}
	for pm.owner(r) == home {
		r++
	}
	if _, err := pm.ApplyBatch([]Op{
		{Kind: OpPut, Key: w, Value: 100},
		{Kind: OpPut, Key: w2, Value: 200},
		{Kind: OpPut, Key: r, Value: 7},
	}); err != nil {
		t.Fatal(err)
	}

	// Single-owner write set + remote read: kernel-applied, two rounds.
	before := pm.Stats()
	res, err := pm.ApplyTxns([]Txn{{Ops: []Op{
		{Kind: OpAdd, Key: w, Value: 1},
		{Kind: OpPut, Key: w2, Value: 201},
		{Kind: OpGet, Key: r},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Committed || res[0].Results[0].Value != 101 || res[0].Results[2].Value != 7 {
		t.Fatalf("kernel-applied txn: %+v", res[0])
	}
	if got := pm.Stats().Rounds - before.Rounds; got != 2 {
		t.Fatalf("kernel-applied txn took %d rounds, want 2 (gather + commit)", got)
	}
	ph := pm.BatchPhases
	if ph.GatherSeconds <= 0 || ph.ApplySeconds <= 0 || ph.WritebackSeconds <= 0 {
		t.Fatalf("kernel-applied phase split degenerate: %+v", ph)
	}
	if va, _ := pm.Get(w); va != 101 {
		t.Fatalf("w = %d", va)
	}
	if vb, _ := pm.Get(w2); vb != 201 {
		t.Fatalf("w2 = %d", vb)
	}

	// A failing guard aborts inside the kernel: nothing applies.
	res, err = pm.ApplyTxns([]Txn{{Ops: []Op{
		{Kind: OpSub, Key: w, Value: 1000}, // underflows
		{Kind: OpPut, Key: w2, Value: 999},
		{Kind: OpGet, Key: r},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Committed || res[0].Err != nil {
		t.Fatalf("underflowing kernel-applied txn: %+v", res[0])
	}
	if va, _ := pm.Get(w); va != 101 {
		t.Fatalf("aborted txn mutated w: %d", va)
	}
	if vb, _ := pm.Get(w2); vb != 201 {
		t.Fatalf("aborted txn mutated w2: %d", vb)
	}

	// Writes spanning owners: the two-round multi-owner prepare/commit,
	// also charging apply cycles (the commit units run in-kernel).
	before = pm.Stats()
	res, err = pm.ApplyTxns([]Txn{{Ops: []Op{
		{Kind: OpSub, Key: w, Value: 10},
		{Kind: OpAdd, Key: r, Value: 10},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Committed {
		t.Fatalf("multi-owner txn: %+v", res[0])
	}
	if got := pm.Stats().Rounds - before.Rounds; got != 2 {
		t.Fatalf("multi-owner txn took %d rounds, want 2 (prepare + commit)", got)
	}
	ph = pm.BatchPhases
	if ph.GatherSeconds <= 0 || ph.ApplySeconds <= 0 || ph.WritebackSeconds <= 0 {
		t.Fatalf("multi-owner phase split degenerate: %+v", ph)
	}
	if va, _ := pm.Get(w); va != 91 {
		t.Fatalf("w = %d", va)
	}
	if vr, _ := pm.Get(r); vr != 17 {
		t.Fatalf("r = %d", vr)
	}
}
