package host

import (
	"fmt"
	"testing"

	"pimstm/internal/core"
)

// newSplitPM builds a Directory-backed map with the whole keyspace
// preloaded (value = key), the shape every split test starts from: a
// split key must be present at its home, and guarded adds must hit.
func newSplitPM(t *testing.T, dpus, keyspace, sample int) (*PartitionedMap, *Directory, map[uint64]uint64) {
	t.Helper()
	dir := NewDirectory(dpus)
	pm, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: dpus, Buckets: 64, Capacity: 1024, Tasklets: 4,
		STM: core.Config{Algorithm: core.NOrec}, Placement: dir,
		Sample: sample,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[uint64]uint64, keyspace)
	load := make([]Op, keyspace)
	for k := 0; k < keyspace; k++ {
		load[k] = Op{Kind: OpPut, Key: uint64(k), Value: uint64(k)}
		ref[uint64(k)] = uint64(k)
	}
	if _, err := pm.ApplyBatch(load); err != nil {
		t.Fatal(err)
	}
	return pm, dir, ref
}

// shardSum reads every delta shard of key k host-side (no paid rounds).
func shardSum(pm *PartitionedMap, k uint64) uint64 {
	var sum uint64
	for d := 0; d < pm.fleet.Size(); d++ {
		if v, ok := pm.hostGet(d, shardKeyFor(k, d)); ok {
			sum += v
		}
	}
	return sum
}

// shardCount counts the physical shard records of key k.
func shardCount(pm *PartitionedMap, k uint64) int {
	n := 0
	for d := 0; d < pm.fleet.Size(); d++ {
		if _, ok := pm.hostGet(d, shardKeyFor(k, d)); ok {
			n++
		}
	}
	return n
}

func TestSplitKeysLifecycle(t *testing.T) {
	// A static placement has nowhere to record the split state.
	static := newPM(t, 4)
	if err := static.SplitKeys([]uint64{1}); err == nil {
		t.Fatal("static placement accepted a split")
	}
	if err := static.UnsplitKeys([]uint64{1}); err == nil {
		t.Fatal("static placement accepted an unsplit")
	}

	// Splitting over one DPU is meaningless — there is nothing to shard.
	one, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: 1, Buckets: 64, Capacity: 512, Tasklets: 4,
		STM: core.Config{Algorithm: core.NOrec}, Placement: NewDirectory(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := one.SplitKeys([]uint64{1}); err == nil {
		t.Fatal("single-DPU fleet accepted a split")
	}

	pm, dir, _ := newSplitPM(t, 4, 16, 0)
	// Keys at or above 2^40 cannot pack a shard id.
	if err := pm.SplitKeys([]uint64{splitKeyLimit}); err == nil {
		t.Fatal("out-of-range key accepted")
	}
	// A replicated key must drop its copies first (the deterministic
	// replicate→split transition the Rebalancer implements).
	if err := pm.ReplicateKeys(map[uint64][]int{2: {(pm.owner(2) + 1) % 4}}); err != nil {
		t.Fatal(err)
	}
	if len(dir.allReplicas(2)) == 0 {
		t.Fatal("replica promotion did not land")
	}
	if err := pm.SplitKeys([]uint64{2}); err == nil {
		t.Fatal("replicated key accepted for splitting")
	}
	// Missing keys are skipped, not manufactured.
	if err := pm.SplitKeys([]uint64{400}); err != nil {
		t.Fatal(err)
	}
	if dir.isSplit(400) {
		t.Fatal("absent key entered the split state")
	}

	lenBefore := pm.Len()
	if err := pm.SplitKeys([]uint64{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if pm.BatchSeconds <= 0 {
		t.Fatal("splitting was modeled as free")
	}
	if ds := dir.Stats(); ds.SplitKeys != 2 {
		t.Fatalf("split-key count = %d, want 2", ds.SplitKeys)
	}
	if shardCount(pm, 0) != 4 || shardCount(pm, 1) != 4 {
		t.Fatalf("shards not seeded on every DPU: %d, %d", shardCount(pm, 0), shardCount(pm, 1))
	}
	if pm.Len() != lenBefore {
		t.Fatalf("Len counts shard bookkeeping: %d, want %d", pm.Len(), lenBefore)
	}
	// Re-splitting a split key is a free no-op.
	if err := pm.SplitKeys([]uint64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if pm.BatchSeconds != 0 {
		t.Fatal("idempotent re-split charged a round")
	}

	// Pure adds absorb into local shards: the home value stays put, the
	// logical Get sums home + shards.
	var adds []Txn
	var total uint64
	for i := 0; i < 12; i++ {
		v := uint64(1 + i%3)
		adds = append(adds, Txn{Ops: []Op{{Kind: OpAdd, Key: uint64(i % 2), Value: v}}})
		if i%2 == 0 {
			total += v
		}
	}
	res, err := pm.ApplyTxns(adds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if !res[i].Committed || res[i].Err != nil {
			t.Fatalf("add %d did not commit: %+v", i, res[i])
		}
	}
	if v, ok := pm.Get(0); !ok || v != total {
		t.Fatalf("Get(0) = %d,%v want %d", v, ok, total)
	}
	if shardSum(pm, 0) != total {
		t.Fatalf("shards of key 0 hold %d, want %d", shardSum(pm, 0), total)
	}
	if home, _ := pm.hostGet(pm.owner(0), 0); home != 0 {
		t.Fatalf("home value moved without a reconciliation: %d", home)
	}

	// A read forces the paid epoch reconciliation: deltas fold into the
	// home value, shards zero, the key stays split.
	recBefore := pm.SplitReconciles
	got, err := pm.ApplyBatch([]Op{{Kind: OpGet, Key: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].OK || got[0].Value != total {
		t.Fatalf("reconciled read = %+v, want %d", got[0], total)
	}
	if pm.SplitReconciles != recBefore+1 {
		t.Fatalf("SplitReconciles = %d, want %d", pm.SplitReconciles, recBefore+1)
	}
	if home, _ := pm.hostGet(pm.owner(0), 0); home != total {
		t.Fatalf("home value after the merge = %d, want %d", home, total)
	}
	if shardSum(pm, 0) != 0 {
		t.Fatalf("shards not zeroed after the merge: %d", shardSum(pm, 0))
	}
	if !dir.isSplit(0) {
		t.Fatal("reconciliation tore down the split state")
	}

	// A delete reconciles and unsplits; the key can then be recreated as
	// an ordinary record.
	if res, err := pm.ApplyTxns([]Txn{{Ops: []Op{{Kind: OpDelete, Key: 1}}}}); err != nil || !res[0].Committed {
		t.Fatalf("delete of a split key: %+v %v", res, err)
	}
	if dir.isSplit(1) || shardCount(pm, 1) != 0 {
		t.Fatalf("delete left split residue: split=%v shards=%d", dir.isSplit(1), shardCount(pm, 1))
	}
	if _, ok := pm.Get(1); ok {
		t.Fatal("deleted split key still present")
	}
	if _, err := pm.ApplyBatch([]Op{{Kind: OpPut, Key: 1, Value: 77}}); err != nil {
		t.Fatal(err)
	}
	if v, ok := pm.Get(1); !ok || v != 77 {
		t.Fatalf("recreated key = %d,%v", v, ok)
	}

	// UnsplitKeys folds and tears down; unknown keys are skipped free.
	if err := pm.UnsplitKeys([]uint64{0, 1, 9}); err != nil {
		t.Fatal(err)
	}
	if dir.splitCount() != 0 || shardCount(pm, 0) != 0 {
		t.Fatalf("unsplit left residue: %d keys, %d shards", dir.splitCount(), shardCount(pm, 0))
	}
	if v, ok := pm.Get(0); !ok || v != total {
		t.Fatalf("Get(0) after unsplit = %d,%v want %d", v, ok, total)
	}
	if pm.Len() != lenBefore {
		t.Fatalf("Len after the full cycle = %d, want %d", pm.Len(), lenBefore)
	}
	if err := pm.UnsplitKeys([]uint64{0}); err != nil {
		t.Fatal(err)
	}
	if pm.BatchSeconds != 0 {
		t.Fatal("unsplitting nothing charged a round")
	}
}

// genSplitStream is the adversarial trace for the split differential: a
// heavy commutative-add stream over 4 hot counters, laced with the
// accesses that force reconciliations (reads, puts, guarded subs),
// delete/recreate churn that tears the split state down mid-stream, and
// cold background traffic. Multi-op transactions ride adds alongside
// cold work so the shard-target selection (the DPU the transaction
// already touches) is exercised too.
func genSplitStream(seed uint64, count int, keyspace uint64) []Txn {
	rng := Rand64(seed*0x9E3779B97F4A7C15 + 0xA24BAED4963EE407)
	hot := func() uint64 { return rng.Next() % 4 }
	cold := func() uint64 { return 4 + rng.Next()%(keyspace-4) }
	txns := make([]Txn, count)
	for i := range txns {
		switch draw := rng.Next() % 20; {
		case draw < 10: // pure hot-counter increment — the rewrite target
			txns[i] = Txn{Ops: []Op{{Kind: OpAdd, Key: hot(), Value: 1 + rng.Next()%5}}}
		case draw < 13: // an add riding along confined cold work
			txns[i] = Txn{Ops: []Op{
				{Kind: OpPut, Key: cold(), Value: rng.Next() % 1000},
				{Kind: OpAdd, Key: hot(), Value: 1 + rng.Next()%5},
			}}
		case draw < 15: // non-commutative read → epoch reconciliation
			txns[i] = Txn{Ops: []Op{{Kind: OpGet, Key: hot()}}}
		case draw < 16: // guarded decrement → reconciliation, may abort
			txns[i] = Txn{Ops: []Op{{Kind: OpSub, Key: hot(), Value: rng.Next() % 50}}}
		case draw < 17: // delete/recreate churn → mid-stream unsplit
			if rng.Next()%2 == 0 {
				txns[i] = Txn{Ops: []Op{{Kind: OpDelete, Key: hot()}}}
			} else {
				txns[i] = Txn{Ops: []Op{{Kind: OpPut, Key: hot(), Value: rng.Next() % 100}}}
			}
		default: // cold background traffic
			ops := make([]Op, 2)
			for j := range ops {
				k := cold()
				switch rng.Next() % 3 {
				case 0:
					ops[j] = Op{Kind: OpGet, Key: k}
				case 1:
					ops[j] = Op{Kind: OpPut, Key: k, Value: rng.Next() % 1000}
				default:
					ops[j] = Op{Kind: OpAdd, Key: k, Value: rng.Next() % 10}
				}
			}
			txns[i] = Txn{Ops: ops}
		}
	}
	return txns
}

// TestDifferentialSplitReconcile pins split-key execution against the
// host reference across scheduler × sampled-fleet × control-plane mode:
// the adversarial stream runs through a real Scheduler, every batch is
// compared transaction by transaction, and after every batch the
// logical value of each hot counter (home + Σ shards) must equal the
// reference — the reconciliation invariant. Commit/abort outcomes are
// always exact; the one documented deviation is the reported Value of a
// rewritten add (its local shard, not the logical counter), which is
// skipped for keys split at check time. The run ends with a full
// unsplit and an exact state/len comparison.
func TestDifferentialSplitReconcile(t *testing.T) {
	const (
		dpus     = 4
		keyspace = 48
		txnCount = 160
	)
	hotKeys := []uint64{0, 1, 2, 3}
	schedulers := map[string]func(pm *PartitionedMap) Scheduler{
		"fifo": func(*PartitionedMap) Scheduler { return NewFIFOScheduler(24, 300e-6) },
		"lane": func(pm *PartitionedMap) Scheduler {
			s := NewLaneScheduler(LaneSchedulerConfig{
				Confined:    LaneConfig{MaxBatch: 24, MaxDelaySeconds: 300e-6},
				Coordinated: LaneConfig{MaxBatch: 48, MaxDelaySeconds: 600e-6},
			})
			s.bindClassifier(pm.LaneOf)
			return s
		},
		"adaptive": func(pm *PartitionedMap) Scheduler {
			s := NewAdaptiveScheduler(LaneSchedulerConfig{
				Confined:    LaneConfig{MaxBatch: 24, MaxDelaySeconds: 300e-6},
				Coordinated: LaneConfig{MaxBatch: 48, MaxDelaySeconds: 600e-6},
			}, AdaptiveConfig{})
			s.bindClassifier(pm.LaneOf)
			return s
		},
	}
	for _, mode := range []string{"manual", "rebalancer"} {
		for schedName, mkSched := range schedulers {
			for _, sample := range []int{0, 2} {
				name := fmt.Sprintf("%s/%s/sample%d", mode, schedName, sample)
				t.Run(name, func(t *testing.T) {
					pm, dir, ref := newSplitPM(t, dpus, keyspace, sample)
					var reb *Rebalancer
					var err error
					if mode == "manual" {
						if err := pm.SplitKeys(hotKeys); err != nil {
							t.Fatal(err)
						}
					} else {
						// The add-share trigger must find the hot counters
						// on its own; an aggressive window keeps it acting
						// throughout the stream.
						if reb, err = NewRebalancer(pm, RebalancerConfig{
							WindowBatches: 2, TopK: 4, MinKeyOps: 2, Trigger: 1.01,
							Replicas: 2, ReplicateMaxWriteShare: 0.25,
							SplitMinAddShare: 0.5, CooldownWindows: 1,
						}); err != nil {
							t.Fatal(err)
						}
					}
					sched := mkSched(pm)
					sawShardDelta := false
					batches := 0
					applyBatch := func(b SchedBatch) {
						if len(b.Txns) == 0 {
							return
						}
						txns := make([]Txn, len(b.Txns))
						for i := range b.Txns {
							txns[i] = b.Txns[i].Txn
						}
						got, err := pm.ApplyTxns(txns)
						if err != nil {
							t.Fatalf("batch apply: %v", err)
						}
						for i, txn := range txns {
							wantRes, wantOK := refApplyTxn(ref, txn)
							if got[i].Err != nil {
								t.Fatalf("txn %d errored: %v", i, got[i].Err)
							}
							if got[i].Committed != wantOK {
								t.Fatalf("txn %d (%+v): committed %v want %v",
									i, txn.Ops, got[i].Committed, wantOK)
							}
							for j := range wantRes {
								gr, wr := got[i].Results[j], wantRes[j]
								if gr.OK != wr.OK {
									t.Fatalf("txn %d op %d (%+v): OK %v want %v",
										i, j, txn.Ops[j], gr.OK, wr.OK)
								}
								if op := txn.Ops[j]; (isRMW(op.Kind) || op.Kind == OpGet) && dir.isSplit(op.Key) {
									// The documented deviations: a rewritten
									// add or sub reports its local shard's
									// value, and a read sharing a batch with
									// rewritten adds reports the reconciled
									// epoch value rather than the batch-order
									// running value. The post-batch
									// logical-value check below still pins
									// state exactness.
									continue
								}
								if gr.Value != wr.Value {
									t.Fatalf("txn %d op %d (%+v): got %+v want %+v",
										i, j, txn.Ops[j], gr, wr)
								}
							}
						}
						// The reconciliation invariant, after every batch:
						// home + Σ shards == host reference for every hot
						// counter, split or not.
						for _, k := range hotKeys {
							want, wantOK := ref[k]
							gotV, gotOK := pm.Get(k)
							if gotOK != wantOK || (gotOK && gotV != want) {
								t.Fatalf("batch %d: logical value of key %d = %d,%v want %d,%v",
									batches, k, gotV, gotOK, want, wantOK)
							}
							if dir.isSplit(k) && shardSum(pm, k) != 0 {
								sawShardDelta = true
							}
						}
						batches++
						sched.Observe(b, BatchFeedback{
							Ops:              len(txns),
							KernelSeconds:    pm.BatchLaunchSeconds,
							HandshakeSeconds: pm.BatchTransferSeconds,
							WallSeconds:      pm.BatchSeconds,
						})
						if _, err := pm.MaybeRebalance(); err != nil {
							t.Fatalf("rebalance: %v", err)
						}
						if mode == "manual" && batches%6 == 0 {
							// Re-enter any counters the delete churn tore
							// down (absent ones are skipped).
							if err := pm.SplitKeys(hotKeys); err != nil {
								t.Fatal(err)
							}
						}
					}
					stream := genSplitStream(11, txnCount, keyspace)
					for i, txn := range stream {
						for _, b := range sched.Admit(SchedTxn{Txn: txn, Arrival: float64(i) * 1e-5}) {
							applyBatch(b)
						}
					}
					for _, b := range sched.Drain() {
						applyBatch(b)
					}
					if pm.SplitReconciles == 0 {
						t.Fatal("the stream never paid a reconciliation; the merge path was not exercised")
					}
					if !sawShardDelta {
						t.Fatal("no add was ever absorbed into a shard; the rewrite path was not exercised")
					}
					if mode == "rebalancer" && reb.Stats().KeysSplit == 0 {
						t.Fatalf("the add-share trigger never split a key: %+v", reb.Stats())
					}
					// Tear down and compare exactly.
					if err := pm.UnsplitKeys(dir.splitKeys()); err != nil {
						t.Fatal(err)
					}
					if pm.Len() != len(ref) {
						t.Fatalf("final len %d, reference %d", pm.Len(), len(ref))
					}
					for k := uint64(0); k < keyspace; k++ {
						want, wantOK := ref[k]
						got, gotOK := pm.Get(k)
						if gotOK != wantOK || (gotOK && got != want) {
							t.Fatalf("final key %d: got %d,%v want %d,%v", k, got, gotOK, want, wantOK)
						}
					}
				})
			}
		}
	}
}

// genSubStream is the sub-dominated trace for the guarded-decrement
// differential: small stock decrements dominate 4 hot counters,
// replenishment adds and occasional reads keep the escrow being
// re-proven across epoch folds, and oversized decrements force genuine
// underflow aborts (the suppressed exact path). Order-line
// transactions ride a decrement alongside confined cold work so the
// shard-target selection is exercised for subs too.
func genSubStream(seed uint64, count int, keyspace uint64) []Txn {
	rng := Rand64(seed*0x9E3779B97F4A7C15 + 0x5851F42D4C957F2D)
	hot := func() uint64 { return rng.Next() % 4 }
	cold := func() uint64 { return 4 + rng.Next()%(keyspace-4) }
	txns := make([]Txn, count)
	for i := range txns {
		switch draw := rng.Next() % 40; {
		case draw < 18: // pure stock decrement — the sub-rewrite target
			txns[i] = Txn{Ops: []Op{{Kind: OpSub, Key: hot(), Value: 1 + rng.Next()%4}}}
		case draw < 24: // order line: a decrement riding confined cold work
			txns[i] = Txn{Ops: []Op{
				{Kind: OpPut, Key: cold(), Value: rng.Next() % 1000},
				{Kind: OpSub, Key: hot(), Value: 1 + rng.Next()%4},
			}}
		case draw < 30: // replenishment increment
			txns[i] = Txn{Ops: []Op{{Kind: OpAdd, Key: hot(), Value: rng.Next() % 8}}}
		case draw < 31: // oversized decrement → guaranteed underflow abort
			txns[i] = Txn{Ops: []Op{{Kind: OpSub, Key: hot(), Value: 50000 + rng.Next()%5000}}}
		case draw < 33: // non-commutative read → epoch reconciliation
			txns[i] = Txn{Ops: []Op{{Kind: OpGet, Key: hot()}}}
		default: // cold background traffic
			txns[i] = Txn{Ops: []Op{{Kind: OpGet, Key: cold()}}}
		}
	}
	return txns
}

// TestDifferentialSplitSubRewrite pins the escrowed guarded-decrement
// path against the host reference: a sub-dominated stream over split
// stock counters must keep exact commit/abort parity (underflow aborts
// included), keep the logical value (home + Σ shards) exact after
// every batch, and — the point of the escrow — execute at least one
// decrement-bearing batch without paying a reconciliation. Guard-abort
// accounting is recounted against per-transaction outcomes, and in
// rebalancer mode the RMW-share trigger must discover and split the
// sub-dominated counters on its own.
func TestDifferentialSplitSubRewrite(t *testing.T) {
	const (
		dpus     = 4
		keyspace = 48
		txnCount = 240
		stock    = 4000
	)
	hotKeys := []uint64{0, 1, 2, 3}
	for _, mode := range []string{"manual", "rebalancer"} {
		for _, sample := range []int{0, 2} {
			name := fmt.Sprintf("%s/sample%d", mode, sample)
			t.Run(name, func(t *testing.T) {
				pm, dir, ref := newSplitPM(t, dpus, keyspace, sample)
				// Stock up the hot counters so small decrements stay
				// covered while the oversized ones still underflow.
				restock := make([]Op, 0, len(hotKeys))
				for _, k := range hotKeys {
					restock = append(restock, Op{Kind: OpPut, Key: k, Value: stock})
					ref[k] = stock
				}
				if _, err := pm.ApplyBatch(restock); err != nil {
					t.Fatal(err)
				}
				var reb *Rebalancer
				var err error
				if mode == "manual" {
					if err := pm.SplitKeys(hotKeys); err != nil {
						t.Fatal(err)
					}
				} else {
					if reb, err = NewRebalancer(pm, RebalancerConfig{
						WindowBatches: 2, TopK: 4, MinKeyOps: 2, Trigger: 1.01,
						Replicas: 2, ReplicateMaxWriteShare: 0.25,
						SplitMinAddShare: 0.5, CooldownWindows: 1,
					}); err != nil {
						t.Fatal(err)
					}
				}
				sched := NewFIFOScheduler(12, 300e-6)
				var (
					batches         int
					coveredBatches  int
					guardAbortsAcc  int
					guardAbortsSeen int
				)
				applyBatch := func(b SchedBatch) {
					if len(b.Txns) == 0 {
						return
					}
					txns := make([]Txn, len(b.Txns))
					for i := range b.Txns {
						txns[i] = b.Txns[i].Txn
					}
					hotSub := false
					for _, txn := range txns {
						for _, op := range txn.Ops {
							if op.Kind == OpSub && dir.isSplit(op.Key) {
								hotSub = true
							}
						}
					}
					recBefore := pm.SplitReconciles
					got, err := pm.ApplyTxns(txns)
					if err != nil {
						t.Fatalf("batch apply: %v", err)
					}
					guardAbortsAcc += pm.BatchPhases.GuardAborts
					if hotSub && pm.SplitReconciles == recBefore {
						coveredBatches++
					}
					for i, txn := range txns {
						wantRes, wantOK := refApplyTxn(ref, txn)
						if got[i].Err != nil {
							t.Fatalf("txn %d errored: %v", i, got[i].Err)
						}
						if got[i].Committed != wantOK {
							t.Fatalf("txn %d (%+v): committed %v want %v",
								i, txn.Ops, got[i].Committed, wantOK)
						}
						if !got[i].Committed {
							guardAbortsSeen++
						}
						for j := range wantRes {
							gr, wr := got[i].Results[j], wantRes[j]
							if gr.OK != wr.OK {
								t.Fatalf("txn %d op %d (%+v): OK %v want %v",
									i, j, txn.Ops[j], gr.OK, wr.OK)
							}
							if op := txn.Ops[j]; (isRMW(op.Kind) || op.Kind == OpGet) && dir.isSplit(op.Key) {
								continue // documented value deviations, as above
							}
							if gr.Value != wr.Value {
								t.Fatalf("txn %d op %d (%+v): got %+v want %+v",
									i, j, txn.Ops[j], gr, wr)
							}
						}
					}
					for _, k := range hotKeys {
						want, wantOK := ref[k]
						gotV, gotOK := pm.Get(k)
						if gotOK != wantOK || (gotOK && gotV != want) {
							t.Fatalf("batch %d: logical value of key %d = %d,%v want %d,%v",
								batches, k, gotV, gotOK, want, wantOK)
						}
					}
					batches++
					sched.Observe(b, BatchFeedback{
						Ops:           len(txns),
						KernelSeconds: pm.BatchLaunchSeconds,
						WallSeconds:   pm.BatchSeconds,
					})
					if _, err := pm.MaybeRebalance(); err != nil {
						t.Fatalf("rebalance: %v", err)
					}
				}
				stream := genSubStream(17, txnCount, keyspace)
				for i, txn := range stream {
					for _, b := range sched.Admit(SchedTxn{Txn: txn, Arrival: float64(i) * 1e-5}) {
						applyBatch(b)
					}
				}
				for _, b := range sched.Drain() {
					applyBatch(b)
				}
				if coveredBatches == 0 {
					t.Fatal("every decrement-bearing batch paid a reconciliation; the escrow never amortized")
				}
				if guardAbortsSeen == 0 {
					t.Fatal("the oversized decrements never aborted; the guard path was not exercised")
				}
				if guardAbortsAcc != guardAbortsSeen {
					t.Fatalf("GuardAborts accounting = %d, recount of aborted txns = %d",
						guardAbortsAcc, guardAbortsSeen)
				}
				if mode == "rebalancer" && reb.Stats().KeysSplit == 0 {
					t.Fatalf("the RMW-share trigger never split a sub-dominated key: %+v", reb.Stats())
				}
				// Tear down and compare exactly.
				if err := pm.UnsplitKeys(dir.splitKeys()); err != nil {
					t.Fatal(err)
				}
				for k := uint64(0); k < keyspace; k++ {
					want, wantOK := ref[k]
					got, gotOK := pm.Get(k)
					if gotOK != wantOK || (gotOK && got != want) {
						t.Fatalf("final key %d: got %d,%v want %d,%v", k, got, gotOK, want, wantOK)
					}
				}
			})
		}
	}
}

// TestSplitPolicyInteractions is the remedy-transition table: a key
// that already holds replicas (or a migration override) when the
// commutative-add trigger fires must resolve deterministically — the
// replicas drop in the same control step that splits the key, never
// both states at once, and a migration override simply stays as the
// split key's home. Each scenario drives the real Rebalancer through
// the earlier remedy first, then flips the traffic to pure adds.
func TestSplitPolicyInteractions(t *testing.T) {
	const dpus = 4
	scenarios := []struct {
		name string
		// maxWriteShare picks the first remedy (1.0 replicates the
		// read phase, ~0 migrates the write phase).
		maxWriteShare float64
		// phase1 emits the batch that provokes the first remedy; nil
		// skips straight to the adds.
		phase1 func(key uint64) []Op
		// settled checks the first remedy landed.
		settled func(dir *Directory, key uint64) bool
	}{
		{
			name:          "replicate-then-split",
			maxWriteShare: 1.0,
			phase1: func(key uint64) []Op {
				ops := make([]Op, 16)
				for i := range ops {
					ops[i] = Op{Kind: OpGet, Key: key}
				}
				return ops
			},
			settled: func(dir *Directory, key uint64) bool { return len(dir.Replicas(key)) > 0 },
		},
		{
			name:          "migrate-then-split",
			maxWriteShare: 1e-9,
			phase1: func(key uint64) []Op {
				ops := make([]Op, 16)
				for i := range ops {
					ops[i] = Op{Kind: OpPut, Key: key, Value: uint64(i)}
				}
				return ops
			},
			settled: func(dir *Directory, key uint64) bool { return dir.Owner(key) != hashOwner(key, dpus) },
		},
		{
			name:          "direct-split",
			maxWriteShare: 1.0,
			phase1:        nil,
			settled:       nil,
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			pm, dir, _ := newSplitPM(t, dpus, 16, 0)
			key := keysOwnedBy(dir, 0, 1)[0]
			reb, err := NewRebalancer(pm, RebalancerConfig{
				WindowBatches: 1, TopK: 2, MinKeyOps: 4, Trigger: 1.01,
				Replicas: 2, ReplicateMaxWriteShare: sc.maxWriteShare,
				SplitMinAddShare: 0.5, CooldownWindows: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			step := func(ops []Op) {
				t.Helper()
				if _, err := pm.ApplyBatch(ops); err != nil {
					t.Fatal(err)
				}
				if _, err := pm.MaybeRebalance(); err != nil {
					t.Fatal(err)
				}
				// The exclusivity invariant, after every control step.
				if dir.isSplit(key) && len(dir.allReplicas(key)) > 0 {
					t.Fatal("key is split and replicated at once")
				}
			}
			if sc.phase1 != nil {
				for w := 0; w < 4 && !sc.settled(dir, key); w++ {
					step(sc.phase1(key))
				}
				if !sc.settled(dir, key) {
					t.Fatal("first remedy never landed")
				}
			}
			ownerBefore := dir.Owner(key)
			// Phase 1 may have overwritten the preload value; the add
			// phase counts up from whatever it left.
			base, ok := pm.Get(key)
			if !ok {
				t.Fatal("key vanished during the first remedy")
			}
			var added uint64
			addBatch := func() []Op {
				ops := make([]Op, 16)
				for i := range ops {
					ops[i] = Op{Kind: OpAdd, Key: key, Value: 1}
					added++
				}
				return ops
			}
			for w := 0; w < 6 && !dir.isSplit(key); w++ {
				step(addBatch())
			}
			if !dir.isSplit(key) {
				t.Fatalf("add-dominated key never split: %+v", reb.Stats())
			}
			if got := dir.allReplicas(key); len(got) != 0 {
				t.Fatalf("split key still holds replicas: %v", got)
			}
			if s := reb.Stats(); s.KeysSplit != 1 {
				t.Fatalf("split not counted once: %+v", s)
			}
			if dir.Owner(key) != ownerBefore {
				t.Fatalf("splitting moved the home: %d → %d", ownerBefore, dir.Owner(key))
			}
			// One more add window: a split key is out of the candidate
			// pool, so the control plane stays quiet.
			acted := reb.Stats().WindowsActed
			step(addBatch())
			if reb.Stats().WindowsActed != acted {
				t.Fatal("split key churned again under the same traffic")
			}
			// The counter survived every transition.
			if v, ok := pm.Get(key); !ok || v != base+added {
				t.Fatalf("counter = %d,%v want %d", v, ok, base+added)
			}
		})
	}
}

// TestSplitUnsplitHysteresis: when the commutative traffic dries up,
// the key leaves the split state only after SplitColdWindows straight
// disqualifying windows — and uniform traffic with the split trigger
// armed never churns at all.
func TestSplitUnsplitHysteresis(t *testing.T) {
	pm, dir, _ := newSplitPM(t, 4, 16, 0)
	key := keysOwnedBy(dir, 0, 1)[0]
	reb, err := NewRebalancer(pm, RebalancerConfig{
		WindowBatches: 1, TopK: 2, MinKeyOps: 4, Trigger: 1.01,
		Replicas: 2, SplitMinAddShare: 0.5, SplitColdWindows: 2,
		CooldownWindows: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	addBatch := make([]Op, 16)
	for i := range addBatch {
		addBatch[i] = Op{Kind: OpAdd, Key: key, Value: 1}
	}
	var totalAdds uint64
	for w := 0; w < 6 && !dir.isSplit(key); w++ {
		if _, err := pm.ApplyBatch(addBatch); err != nil {
			t.Fatal(err)
		}
		totalAdds += 16
		if _, err := pm.MaybeRebalance(); err != nil {
			t.Fatal(err)
		}
	}
	if !dir.isSplit(key) {
		t.Fatal("key never split")
	}

	// Traffic shifts to reads elsewhere; the split must survive the
	// first cold window (hysteresis) and drop after the second.
	elsewhere := keysOwnedBy(dir, 1, 1)[0]
	coldBatch := make([]Op, 8)
	for i := range coldBatch {
		coldBatch[i] = Op{Kind: OpGet, Key: elsewhere}
	}
	windows := 0
	for w := 0; w < 8 && dir.isSplit(key); w++ {
		if _, err := pm.ApplyBatch(coldBatch); err != nil {
			t.Fatal(err)
		}
		if _, err := pm.MaybeRebalance(); err != nil {
			t.Fatal(err)
		}
		windows++
	}
	if dir.isSplit(key) {
		t.Fatal("cold split key never torn down")
	}
	if windows < 2 {
		t.Fatalf("split dropped after %d cold windows, want the %d-window hysteresis", windows, 2)
	}
	if s := reb.Stats(); s.KeysUnsplit != 1 {
		t.Fatalf("unsplit not counted: %+v", s)
	}
	if shardCount(pm, key) != 0 {
		t.Fatal("unsplit left shard records behind")
	}
	// Every add landed — on the home before the split, on shards after —
	// and the teardown folded them all back in.
	if v, ok := pm.Get(key); !ok || v != key+totalAdds {
		t.Fatalf("counter = %d,%v want %d", v, ok, key+totalAdds)
	}

	// Uniform traffic with the trigger armed: no remedy ever fires.
	pm2, dir2, _ := newSplitPM(t, 4, 256, 0)
	reb2, err := NewRebalancer(pm2, RebalancerConfig{
		WindowBatches: 2, SplitMinAddShare: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := Rand64(7)
	for b := 0; b < 8; b++ {
		var ops []Op
		for i := 0; i < 64; i++ {
			k := rng.Next() % 256
			if rng.Next()%2 == 0 {
				ops = append(ops, Op{Kind: OpAdd, Key: k, Value: 1})
			} else {
				ops = append(ops, Op{Kind: OpGet, Key: k})
			}
		}
		if _, err := pm2.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		if acted, err := pm2.MaybeRebalance(); err != nil {
			t.Fatal(err)
		} else if acted {
			t.Fatalf("uniform add traffic churned at batch %d", b)
		}
	}
	if s := reb2.Stats(); s.KeysSplit != 0 || s.KeysUnsplit != 0 {
		t.Fatalf("uniform traffic split keys: %+v", s)
	}
	if dir2.splitCount() != 0 {
		t.Fatal("directory holds splits under uniform traffic")
	}
}
