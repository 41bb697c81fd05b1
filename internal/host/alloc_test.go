package host

import (
	"testing"

	"pimstm/internal/core"
)

// allocTxns builds a steady-state transactional workload for the
// allocation gates: 64 single-op puts when confined is true (every txn
// stays on its owner DPU, the confined fast path), or 32 two-op
// read-modify-write txns spanning two DPUs when it is false (the
// coordinated snapshot/writeback path). Keys cycle over a small
// resident set so repeated batches neither grow the maps nor exhaust
// the pools.
func allocTxns(pm *PartitionedMap, confined bool) []Txn {
	if confined {
		txns := make([]Txn, 64)
		for i := range txns {
			txns[i] = Txn{Ops: []Op{{Kind: OpPut, Key: uint64(i % 32), Value: uint64(i)}}}
		}
		return txns
	}
	// Pick two keys on different DPUs so every txn coordinates.
	a, b := uint64(0), uint64(1)
	for pm.owner(b) == pm.owner(a) {
		b++
	}
	txns := make([]Txn, 32)
	for i := range txns {
		txns[i] = Txn{Ops: []Op{
			{Kind: OpAdd, Key: a, Value: 1},
			{Kind: OpPut, Key: b + uint64(i%8)*64, Value: uint64(i)},
		}}
	}
	return txns
}

// measureApplyTxnsAllocs returns steady-state allocations per ApplyTxns
// batch at the given HostParallelism setting. The first call warms the
// scratch (lazy map growth, pooled tasklet spin-up) and is excluded,
// matching how a serving loop runs.
func measureApplyTxnsAllocs(t *testing.T, confined bool, par int) float64 {
	t.Helper()
	pm, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: 4, Buckets: 64, Capacity: 512, Tasklets: 4,
		STM: core.Config{Algorithm: core.NOrec}, HostParallelism: par,
	})
	if err != nil {
		t.Fatal(err)
	}
	txns := allocTxns(pm, confined)
	for i := 0; i < 3; i++ {
		if _, err := pm.ApplyTxns(txns); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := pm.ApplyTxns(txns); err != nil {
			t.Fatal(err)
		}
	})
}

// allocGatePaths are the engine widths every gate pins: the GOMAXPROCS
// default, a one-worker engine, and an explicit multi-worker engine (whose small-batch dispatch
// stays inline below the work floors — the engine must not buy its
// parallelism with per-batch garbage).
var allocGatePaths = []struct {
	name string
	par  int
}{
	{"engine", 0},
	{"engine-w1", 1},
	{"engine-w4", 4},
}

// TestApplyTxnsConfinedAllocGate pins the allocation budget of the
// confined (single-DPU) ApplyTxns hot path. The seed implementation
// spent 677 allocs on this batch (per-batch map storm in classify,
// route and execute plus a fresh STM descriptor per tasklet per round);
// the scratch-reuse rewrite has to stay ≥10× below that. Results and
// their per-op backing are still allocated fresh — callers retain them
// — so the floor is one TxnResult slab plus one OpResult slab per
// batch, not zero.
func TestApplyTxnsConfinedAllocGate(t *testing.T) {
	for _, p := range allocGatePaths {
		t.Run(p.name, func(t *testing.T) {
			got := measureApplyTxnsAllocs(t, true, p.par)
			t.Logf("confined ApplyTxns (%s): %.1f allocs/batch (seed: 677)", p.name, got)
			if got > 67 {
				t.Fatalf("confined ApplyTxns (%s) allocates %.1f per batch, budget 67 (seed 677, required ≥10× reduction)", p.name, got)
			}
		})
	}
}

// TestApplyTxnsCoordinatedAllocGate pins the coordinated path the same
// way: snapshot gather, host-side evaluation and writeback rounds must
// all run out of the PartitionedMap-owned scratch. Seed: 951
// allocs/batch. The workload's write sets span owners, so this gate
// covers the multi-owner prepare/commit path of the kernel-side commit
// (host prepare + compiled commit units).
func TestApplyTxnsCoordinatedAllocGate(t *testing.T) {
	for _, p := range allocGatePaths {
		t.Run(p.name, func(t *testing.T) {
			got := measureApplyTxnsAllocs(t, false, p.par)
			t.Logf("coordinated ApplyTxns (%s): %.1f allocs/batch (seed: 951)", p.name, got)
			if got > 95 {
				t.Fatalf("coordinated ApplyTxns (%s) allocates %.1f per batch, budget 95 (seed 951, required ≥10× reduction)", p.name, got)
			}
		})
	}
}

// TestApplyTxnsKernelApplyAllocGate extends the allocation discipline to
// the kernel-apply fast path: transactions whose write set lives on one
// DPU but whose reads cross, so every conflict group compiles into an
// apply program executed by the home DPU's writeback kernel. Program
// compilation, operand tables, unit routing and the kernel-side decode
// must all run out of the persistent scratch slabs, under the same
// budget as the host-prepared coordinated path.
func TestApplyTxnsKernelApplyAllocGate(t *testing.T) {
	pm, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: 4, Buckets: 64, Capacity: 512, Tasklets: 4,
		STM: core.Config{Algorithm: core.NOrec},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One write key per txn, all owned by the same DPU; one read key on
	// a different DPU, so each txn is cross-DPU with a single-owner
	// write set — the kernelApply classification.
	home := pm.owner(0)
	var writes, reads []uint64
	for k := uint64(0); len(writes) < 8 || len(reads) < 8; k++ {
		if pm.owner(k) == home {
			writes = append(writes, k)
		} else {
			reads = append(reads, k)
		}
	}
	var load []Op
	for _, k := range append(append([]uint64{}, writes[:8]...), reads[:8]...) {
		load = append(load, Op{Kind: OpPut, Key: k, Value: k})
	}
	if _, err := pm.ApplyBatch(load); err != nil {
		t.Fatal(err)
	}
	txns := make([]Txn, 32)
	for i := range txns {
		txns[i] = Txn{Ops: []Op{
			{Kind: OpAdd, Key: writes[i%8], Value: 1},
			{Kind: OpGet, Key: reads[i%8]},
		}}
	}
	for i := 0; i < 3; i++ {
		res, err := pm.ApplyTxns(txns)
		if err != nil {
			t.Fatal(err)
		}
		for j := range res {
			if !res[j].Committed || res[j].Err != nil {
				t.Fatalf("txn %d did not commit: %+v", j, res[j])
			}
		}
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := pm.ApplyTxns(txns); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("kernel-apply ApplyTxns: %.1f allocs/batch", got)
	if got > 95 {
		t.Fatalf("kernel-apply ApplyTxns allocates %.1f per batch, budget 95", got)
	}
}

// TestApplyTxnsSplitConfinedAllocGate holds the confined budget with
// split shards active: a pure hot-counter batch is rewritten by the
// split pre-pass (touch classification, shard-key rewrite into the
// scratch transaction/op slabs) and then runs as ordinary confined
// adds on the shard keys. The rewrite must be allocation-free in
// steady state — same budget as the unrewritten confined gate.
func TestApplyTxnsSplitConfinedAllocGate(t *testing.T) {
	dir := NewDirectory(4)
	pm, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: 4, Buckets: 64, Capacity: 512, Tasklets: 4,
		STM: core.Config{Algorithm: core.NOrec}, Placement: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	hot := []uint64{0, 1, 2, 3}
	var load []Op
	for _, k := range hot {
		load = append(load, Op{Kind: OpPut, Key: k, Value: k})
	}
	if _, err := pm.ApplyBatch(load); err != nil {
		t.Fatal(err)
	}
	if err := pm.SplitKeys(hot); err != nil {
		t.Fatal(err)
	}
	txns := make([]Txn, 64)
	for i := range txns {
		txns[i] = Txn{Ops: []Op{{Kind: OpAdd, Key: hot[i%len(hot)], Value: 1}}}
	}
	for i := 0; i < 3; i++ {
		res, err := pm.ApplyTxns(txns)
		if err != nil {
			t.Fatal(err)
		}
		for j := range res {
			if !res[j].Committed || res[j].Err != nil {
				t.Fatalf("txn %d did not commit: %+v", j, res[j])
			}
		}
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := pm.ApplyTxns(txns); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("split-rewritten confined ApplyTxns: %.1f allocs/batch", got)
	if got > 67 {
		t.Fatalf("split-rewritten confined ApplyTxns allocates %.1f per batch, budget 67", got)
	}
}

// TestApplyTxnsParallelDispatchAllocGate pins the engine's allocation
// budget when the multi-worker dispatch actually engages: a sampled
// fleet with 248 shadow shards and a 1024-txn batch crosses both the
// shard and transaction work floors, so classification, write analysis
// and shadow application all fan out over the 4-worker pool. Steady
// state measures ~59 allocs for the 1024-txn batch (goroutine spawns
// and a handful of map rehashes); the gate pins a flat 192 so per-batch
// worker garbage can't creep in hidden under the batch size.
func TestApplyTxnsParallelDispatchAllocGate(t *testing.T) {
	const (
		dpus     = 256
		keyspace = 4096
		batch    = 1024
	)
	pm, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: dpus, Buckets: 64, Capacity: 512, Tasklets: 4,
		STM: core.Config{Algorithm: core.NOrec}, Mode: Pipelined,
		Sample: 8, HostParallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var load []Op
	for k := uint64(0); k < keyspace; k++ {
		load = append(load, Op{Kind: OpPut, Key: k, Value: k})
	}
	if _, err := pm.ApplyBatch(load); err != nil {
		t.Fatal(err)
	}
	txns := make([]Txn, batch)
	for i := range txns {
		k := uint64(i*2654435761) % keyspace
		txns[i] = Txn{Ops: []Op{{Kind: OpAdd, Key: k, Value: 1}}}
	}
	for i := 0; i < 3; i++ {
		res, err := pm.ApplyTxns(txns)
		if err != nil {
			t.Fatal(err)
		}
		for j := range res {
			if !res[j].Committed || res[j].Err != nil {
				t.Fatalf("txn %d did not commit: %+v", j, res[j])
			}
		}
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := pm.ApplyTxns(txns); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("parallel-dispatch ApplyTxns: %.1f allocs/batch (budget 192)", got)
	if got > 192 {
		t.Fatalf("parallel-dispatch ApplyTxns allocates %.1f per batch, budget 192", got)
	}
}
