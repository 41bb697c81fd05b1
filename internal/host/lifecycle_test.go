package host

import (
	"runtime"
	"testing"
	"time"

	"pimstm/internal/core"
)

// settledFootprint collects garbage until the goroutine count is back
// at (or under) want — a finished run's tasklets report done just
// before their goroutines return — or a deadline passes, then reports
// the live goroutines and post-GC HeapInuse.
func settledFootprint(want int) (goroutines int, heapInuse uint64) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		goroutines = runtime.NumGoroutine()
		if goroutines <= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goroutines, ms.HeapInuse
}

// TestDroppedStoresReleaseResources is the leak gate of the store
// lifecycle: a Serve run and a directly built PartitionedMap, each
// dropped after use, must leave no goroutine behind and no DPU memory
// live. Each call builds 8 DPUs of 8 MiB MRAM driven by 4 tasklets, so
// one leaked fleet would hold 64 MiB and 32 goroutines; the gate allows
// a quarter of one DPU's MRAM of heap growth per call.
func TestDroppedStoresReleaseResources(t *testing.T) {
	mapCfg := PartitionedMapConfig{
		DPUs: 8, Tasklets: 4, Buckets: 64, Capacity: 512,
		STM: core.Config{Algorithm: core.NOrec}, HostParallelism: 2,
	}
	serve := func() {
		res, err := Serve(ServeConfig{
			Map:    mapCfg,
			Submit: SubmitterConfig{MaxBatch: 32, MaxDelaySeconds: 300e-6},
			Traffic: TrafficConfig{
				Ops: 200, Rate: 2e5, ReadPct: 70, Keyspace: 128, Seed: 3,
				TxnSize: 2, CrossDPU: 0.3,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Batches == 0 {
			t.Fatal("serve ran no batches")
		}
	}
	direct := func() {
		pm, err := NewPartitionedMap(mapCfg)
		if err != nil {
			t.Fatal(err)
		}
		var ops []Op
		for k := uint64(0); k < 64; k++ {
			ops = append(ops, Op{Kind: OpPut, Key: k, Value: k})
		}
		if _, err := pm.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range []struct {
		name string
		run  func()
	}{{"serve", serve}, {"partitioned-map", direct}} {
		t.Run(c.name, func(t *testing.T) {
			g0 := runtime.NumGoroutine()
			c.run() // warm once-per-process state outside the heap baseline
			if g, _ := settledFootprint(g0); g > g0 {
				t.Fatalf("warm-up call: %d goroutines live, baseline %d", g, g0)
			}
			_, h0 := settledFootprint(g0)
			const calls = 5
			const perCallBudget = 2 << 20
			for i := 1; i <= calls; i++ {
				c.run()
				g, h := settledFootprint(g0)
				if g > g0 {
					t.Fatalf("call %d: %d goroutines live, baseline %d", i, g, g0)
				}
				if h > h0 && h-h0 > uint64(i)*perCallBudget {
					t.Fatalf("call %d: post-GC HeapInuse grew %.1f MiB over baseline (budget %.1f MiB per call)",
						i, float64(h-h0)/(1<<20), float64(perCallBudget)/(1<<20))
				}
				t.Logf("call %d: goroutines %d (baseline %d), HeapInuse %+.2f MiB", i, g, g0, (float64(h)-float64(h0))/(1<<20))
			}
		})
	}
}
