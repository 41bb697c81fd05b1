package host

import (
	"reflect"
	"sync"
	"testing"

	"pimstm/internal/core"
)

// storeContents reads every key the trace could have touched back out
// of the served store — the observable state a differential comparison
// cares about (Get spans simulated DPUs and shadow shards alike).
func storeContents(t *testing.T, pm *PartitionedMap, keyspace int) map[uint64]uint64 {
	t.Helper()
	out := make(map[uint64]uint64)
	for k := uint64(0); k < uint64(keyspace); k++ {
		if v, ok := pm.Get(k); ok {
			out[k] = v
		}
	}
	return out
}

// TestHostParallelismDifferential: every HostParallelism setting —
// GOMAXPROCS engine, explicit 2- and 4-worker engines — produces
// byte-identical modeled results to the one-worker engine, across placement × scheduler × fleet-mode variants:
// exact and sampled fleets, static-hash and directory placement with
// an armed rebalancer (split keys included), FIFO and lane scheduling,
// single-op and cross-DPU multi-op traffic.
func TestHostParallelismDifferential(t *testing.T) {
	type variant struct {
		name     string
		keyspace int
		cfg      func(par int) ServeConfig
	}
	variants := []variant{
		{
			name:     "exact-statichash-multiop",
			keyspace: 256,
			cfg: func(par int) ServeConfig {
				return ServeConfig{
					Map: PartitionedMapConfig{
						DPUs: 8, Tasklets: 4, STM: core.Config{Algorithm: core.NOrec},
						Mode: Pipelined, HostParallelism: par,
					},
					Submit: SubmitterConfig{MaxBatch: 64, MaxDelaySeconds: 300e-6},
					Traffic: TrafficConfig{
						Ops: 600, Rate: 2e5, ReadPct: 70, Keyspace: 256, ZipfS: 1.0, Seed: 7,
						TxnSize: 2, CrossDPU: 0.3, DPUs: 8,
					},
					KeepResults: true,
				}
			},
		},
		{
			name:     "sampled-statichash-multiop",
			keyspace: 1024,
			cfg: func(par int) ServeConfig {
				return ServeConfig{
					Map: PartitionedMapConfig{
						DPUs: 64, Tasklets: 4, STM: core.Config{Algorithm: core.NOrec},
						Mode: Pipelined, Sample: 4, HostParallelism: par,
					},
					Submit: SubmitterConfig{MaxBatch: 128, MaxDelaySeconds: 300e-6},
					Traffic: TrafficConfig{
						Ops: 600, Rate: 2e5, ReadPct: 80, Keyspace: 1024, ZipfS: 0.9, Seed: 11,
						TxnSize: 2, CrossDPU: 0.2, DPUs: 64,
					},
					KeepResults: true,
				}
			},
		},
		{
			name:     "directory-rebalancer-hotsplit",
			keyspace: 128,
			cfg: func(par int) ServeConfig {
				return ServeConfig{
					Map: PartitionedMapConfig{
						DPUs: 4, Tasklets: 4, STM: core.Config{Algorithm: core.NOrec},
						Placement: NewDirectory(4), HostParallelism: par,
					},
					Submit: SubmitterConfig{MaxBatch: 64},
					Traffic: TrafficConfig{
						Ops: 1200, Rate: 2e5, ReadPct: 50, Keyspace: 128, Seed: 5,
						HotKeys: 4, HotWriteFrac: 0.6,
					},
					Rebalance: &RebalancerConfig{
						WindowBatches: 3, TopK: 4, MinKeyOps: 8,
						SplitMinAddShare: 0.5,
					},
					KeepResults: true,
				}
			},
		},
		{
			// Single-op traffic on a sampled static-hash fleet takes the
			// inline shadow-apply path (no unit staging at all): mixed
			// gets, puts, deletes via write skew, and guarded adds on hot
			// keys through the RMW eval fallback.
			name:     "sampled-singleop-inline",
			keyspace: 1024,
			cfg: func(par int) ServeConfig {
				return ServeConfig{
					Map: PartitionedMapConfig{
						DPUs: 64, Tasklets: 4, STM: core.Config{Algorithm: core.NOrec},
						Mode: Pipelined, Sample: 4, HostParallelism: par,
					},
					Submit: SubmitterConfig{MaxBatch: 128, MaxDelaySeconds: 300e-6},
					Traffic: TrafficConfig{
						Ops: 900, Rate: 2e5, ReadPct: 60, Keyspace: 1024, ZipfS: 0.8, Seed: 17,
						HotKeys: 8, HotWriteFrac: 0.5,
					},
					KeepResults: true,
				}
			},
		},
		{
			name:     "sampled-lane-scheduler",
			keyspace: 512,
			cfg: func(par int) ServeConfig {
				return ServeConfig{
					Map: PartitionedMapConfig{
						DPUs: 64, Tasklets: 4, STM: core.Config{Algorithm: core.NOrec},
						Mode: Pipelined, Sample: 4, HostParallelism: par,
					},
					Submit: SubmitterConfig{MaxBatch: 64, MaxDelaySeconds: 300e-6},
					Traffic: TrafficConfig{
						Ops: 600, Rate: 2e5, ReadPct: 85, Keyspace: 512, ZipfS: 1.1, Seed: 13,
						TxnSize: 2, CrossDPU: 0.3, DPUs: 64,
					},
					Scheduler: func() Scheduler {
						return NewLaneScheduler(LaneSchedulerConfig{
							Confined:    LaneConfig{MaxBatch: 64, MaxDelaySeconds: 300e-6},
							Coordinated: LaneConfig{MaxBatch: 64, MaxDelaySeconds: 300e-6},
						})
					},
					KeepResults: true,
				}
			},
		},
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			run := func(par int) (ServeResult, map[uint64]uint64) {
				res, err := Serve(v.cfg(par))
				if err != nil {
					t.Fatalf("par %d: %v", par, err)
				}
				state := storeContents(t, res.Store, v.keyspace)
				res.Store = nil // pointers differ by construction
				return res, state
			}
			ref, refState := run(1)
			if ref.HostWorkers != 1 {
				t.Fatalf("one-worker engine reports %d workers", ref.HostWorkers)
			}
			ref.ZeroHostClock()
			for _, par := range []int{0, 2, 4} {
				got, gotState := run(par)
				if got.HostWorkers < 1 {
					t.Fatalf("par %d reports %d workers", par, got.HostWorkers)
				}
				got.ZeroHostClock()
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("par %d diverged from the one-worker engine:\n%+v\n%+v", par, got, ref)
				}
				if !reflect.DeepEqual(gotState, refState) {
					t.Fatalf("par %d store diverged from the one-worker engine", par)
				}
			}
		})
	}
}

// TestHostParallelShadowRaceStress is the -race target for the engine:
// many client goroutines hammer Submit against a sampled-fleet store
// whose shadow application, classification, and write analysis run on
// an explicit 4-worker pool, with batches big enough (1024 single-op
// adds, 248 shadow shards) to cross every parallel-dispatch floor.
// The workload is commutative (guarded OpAdd on preloaded counters,
// some cross-DPU 2-op adds), so despite nondeterministic batch
// formation the final store state must equal both the arithmetic
// expectation and a one-worker replay of the same transaction
// multiset.
func TestHostParallelShadowRaceStress(t *testing.T) {
	const (
		dpus     = 256
		sample   = 8
		keyspace = 4096
		clients  = 8
		each     = 250
	)
	mkMap := func(par int) *PartitionedMap {
		pm, err := NewPartitionedMap(PartitionedMapConfig{
			DPUs: dpus, Tasklets: 4, Buckets: 64, Capacity: 512,
			STM: core.Config{Algorithm: core.NOrec}, Mode: Pipelined,
			Sample: sample, HostParallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		var preload []Op
		for k := uint64(0); k < keyspace; k++ {
			preload = append(preload, Op{Kind: OpPut, Key: k, Value: k})
		}
		if _, err := pm.ApplyBatch(preload); err != nil {
			t.Fatal(err)
		}
		return pm
	}

	// Deterministic per-client transaction streams: mostly single
	// guarded adds, every 5th a cross-DPU 2-op add.
	txnFor := func(c, i int) Txn {
		k1 := uint64((c*each+i)*2654435761) % keyspace
		if i%5 == 4 {
			k2 := (k1 + keyspace/2) % keyspace
			return Txn{Ops: []Op{
				{Kind: OpAdd, Key: k1, Value: 1},
				{Kind: OpAdd, Key: k2, Value: 1},
			}}
		}
		return Txn{Ops: []Op{{Kind: OpAdd, Key: k1, Value: 1}}}
	}
	adds := make(map[uint64]uint64)
	var allTxns []Txn
	for c := 0; c < clients; c++ {
		for i := 0; i < each; i++ {
			txn := txnFor(c, i)
			for _, op := range txn.Ops {
				adds[op.Key] += op.Value
			}
			allTxns = append(allTxns, txn)
		}
	}

	pm := mkMap(4)
	s := NewSubmitter(pm, SubmitterConfig{MaxBatch: 1024, MaxDelaySeconds: 1, Queue: 64})
	var wg sync.WaitGroup
	futs := make([][]*Future, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f, err := s.Submit(txnFor(c, i), float64(i)*1e-6)
				if err != nil {
					t.Errorf("client %d submit: %v", c, err)
					return
				}
				futs[c] = append(futs[c], f)
			}
		}(c)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for c := range futs {
		for i, f := range futs[c] {
			if res := f.Wait(); res.Err != nil || !res.Committed {
				t.Fatalf("client %d txn %d: %+v", c, i, res)
			}
		}
	}

	// One-worker replay of the same multiset.
	ref := mkMap(1)
	for lo := 0; lo < len(allTxns); lo += 1024 {
		hi := min(lo+1024, len(allTxns))
		res, err := ref.ApplyTxns(allTxns[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if !res[i].Committed {
				t.Fatalf("one-worker replay txn %d aborted: %+v", lo+i, res[i])
			}
		}
	}

	for k := uint64(0); k < keyspace; k++ {
		want := k + adds[k]
		if v, ok := pm.Get(k); !ok || v != want {
			t.Fatalf("key %d: engine store holds (%d,%v), want %d", k, v, ok, want)
		}
		if v, ok := ref.Get(k); !ok || v != want {
			t.Fatalf("key %d: one-worker replay store holds (%d,%v), want %d", k, v, ok, want)
		}
	}
}
