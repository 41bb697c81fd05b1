package host

import (
	"slices"
	"testing"

	"pimstm/internal/core"
)

// Host-side microbenchmarks for the phases the parallel engine touches,
// each run on a one-worker engine (HostParallelism 1), the GOMAXPROCS
// engine (0), and an explicit 4-worker engine — `make bench` runs them
// all, and ReportAllocs keeps the allocation budgets visible next to
// the timings.

var benchPaths = []struct {
	name string
	par  int
}{
	{"engine-w1", 1},
	{"engine", 0},
	{"engine-w4", 4},
}

// benchClassifyTxns builds the classification workload: 1024
// transactions, 70% single-op serving shapes and 30% two-op cross-DPU
// guarded RMWs, so the bench pays both classify passes and the
// union-find (anySer is true and conflicts exist).
func benchClassifyTxns(b *testing.B, par int) {
	pm, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: 64, Buckets: 64, Capacity: 512, Tasklets: 4,
		STM: core.Config{Algorithm: core.NOrec}, HostParallelism: par,
	})
	if err != nil {
		b.Fatal(err)
	}
	txns := make([]Txn, 1024)
	for i := range txns {
		k := uint64(i*2654435761) % 4096
		switch i % 10 {
		case 0, 1, 2:
			txns[i] = Txn{Ops: []Op{
				{Kind: OpAdd, Key: k, Value: 1},
				{Kind: OpAdd, Key: (k + 2048) % 4096, Value: 1},
			}}
		case 3, 4:
			txns[i] = Txn{Ops: []Op{{Kind: OpPut, Key: k, Value: k}}}
		default:
			txns[i] = Txn{Ops: []Op{{Kind: OpGet, Key: k}}}
		}
	}
	pm.classifyTxns(txns) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm.classifyTxns(txns)
	}
}

func BenchmarkClassifyTxns(b *testing.B) {
	for _, p := range benchPaths {
		b.Run(p.name, func(b *testing.B) { benchClassifyTxns(b, p.par) })
	}
}

// benchApplyTxnsSampledHost is the scale experiment's hot loop in
// miniature: a 256-DPU fleet with only 2 DPUs cycle-simulated, serving
// 1024-txn batches of guarded adds. Kernel simulation is a rounding
// error at this sample, so the measurement is the host side end to
// end — classify, unit routing, shadow application, stats.
func benchApplyTxnsSampledHost(b *testing.B, par int) {
	const keyspace = 4096
	pm, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: 256, Buckets: 64, Capacity: 512, Tasklets: 4,
		STM: core.Config{Algorithm: core.NOrec}, Mode: Pipelined,
		Sample: 2, HostParallelism: par,
	})
	if err != nil {
		b.Fatal(err)
	}
	var load []Op
	for k := uint64(0); k < keyspace; k++ {
		load = append(load, Op{Kind: OpPut, Key: k, Value: k})
	}
	if _, err := pm.ApplyBatch(load); err != nil {
		b.Fatal(err)
	}
	txns := make([]Txn, 1024)
	for i := range txns {
		txns[i] = Txn{Ops: []Op{{Kind: OpAdd, Key: uint64(i*2654435761) % keyspace, Value: 1}}}
	}
	if _, err := pm.ApplyTxns(txns); err != nil { // warm the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pm.ApplyTxns(txns); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyTxnsSampledHost(b *testing.B) {
	for _, p := range benchPaths {
		b.Run(p.name, func(b *testing.B) { benchApplyTxnsSampledHost(b, p.par) })
	}
}

// benchShadowFixture fabricates the shadow-application input of one
// execute round on a 256-DPU fleet with 8 simulated DPUs: 1024 routed
// single-op client units (75% reads, 25% guarded adds) spread over the
// ~248 shadow shards, with their per-txn result slabs.
func benchShadowFixture(b *testing.B, par int) (*PartitionedMap, []int, [][]routedUnit, []TxnResult) {
	const keyspace = 4096
	pm, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: 256, Buckets: 64, Capacity: 512, Tasklets: 4,
		STM: core.Config{Algorithm: core.NOrec}, Mode: Pipelined,
		Sample: 8, HostParallelism: par,
	})
	if err != nil {
		b.Fatal(err)
	}
	var load []Op
	for k := uint64(0); k < keyspace; k++ {
		load = append(load, Op{Kind: OpPut, Key: k, Value: k})
	}
	if _, err := pm.ApplyBatch(load); err != nil {
		b.Fatal(err)
	}
	per := make([][]routedUnit, 256)
	results := make([]TxnResult, 1024)
	var involved []int
	for i := range results {
		k := uint64(i*2654435761) % keyspace
		id := pm.owner(k)
		if pm.sim[id] {
			continue
		}
		op := Op{Kind: OpGet, Key: k}
		if i%4 == 0 {
			op = Op{Kind: OpAdd, Key: k, Value: 1}
		}
		if len(per[id]) == 0 {
			involved = append(involved, id)
		}
		per[id] = append(per[id], routedUnit{ops: []Op{op}, ti: i, group: -1})
		results[i].Results = make([]OpResult, 1)
	}
	slices.Sort(involved)
	return pm, involved, per, results
}

// BenchmarkShadowApply times the engine's shadow-shard application
// over the same fabricated round at each worker count.
func BenchmarkShadowApply(b *testing.B) {
	for _, p := range benchPaths {
		b.Run(p.name, func(b *testing.B) {
			pm, involved, per, results := benchShadowFixture(b, p.par)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pm.shadowApplyEngine(involved, per, results); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
