package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pimstm/internal/core"
	"pimstm/internal/host"
)

// These tests pin the committed serving artifacts byte-for-byte: they
// regenerate the full default sweeps into a temp file and compare
// against the repository copies. BENCH_serve.json is produced entirely
// by the default FIFOScheduler, so the pin proves the scheduler
// extraction preserves the historical serving path bit-for-bit;
// BENCH_txnserve.json pins both the FIFO rows (same guarantee) and the
// lane rows (the scheduler axis itself is reproducible). Regenerating
// an artifact deliberately (make serve / make txnserve) updates the
// committed file and keeps the pin honest.

// repoArtifact reads a committed artifact from the repository root
// (two levels up from this package).
func repoArtifact(t *testing.T, name string) string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestServeArtifactPinned: the default serve sweep reproduces the
// committed BENCH_serve.json exactly under the default FIFOScheduler.
func TestServeArtifactPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full default sweep")
	}
	out := filepath.Join(t.TempDir(), "serve.json")
	_, err := serveSweep.run(nil, 0, out, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := repoArtifact(t, "BENCH_serve.json"); string(got) != want {
		t.Fatal("regenerated BENCH_serve.json differs from the committed artifact: the default FIFO serving path changed (regenerate with `make serve` if intentional)")
	}
}

// TestTxnServeArtifactPinned: the default txnserve sweep reproduces
// the committed BENCH_txnserve.json exactly — FIFO rows pin the
// default path, lane rows pin the scheduler axis.
func TestTxnServeArtifactPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full default sweep")
	}
	out := filepath.Join(t.TempDir(), "txnserve.json")
	_, err := txnServeSweep.run(nil, 0, out, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := repoArtifact(t, "BENCH_txnserve.json"); string(got) != want {
		t.Fatal("regenerated BENCH_txnserve.json differs from the committed artifact: the txn serving path changed (regenerate with `make txnserve` if intentional)")
	}
}

// TestMultiDPUArtifactPinned: the default multidpu sweep reproduces
// the committed BENCH_multidpu.json exactly.
func TestMultiDPUArtifactPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full default sweep")
	}
	out := filepath.Join(t.TempDir(), "multidpu.json")
	if _, err := multiDPUSweep.run(nil, 0, out, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := repoArtifact(t, "BENCH_multidpu.json"); string(got) != want {
		t.Fatal("regenerated BENCH_multidpu.json differs from the committed artifact: the fleet pipeline or its cost model changed (regenerate with `make multidpu` if intentional)")
	}
}

// TestScaleArtifactPinned: the default scale sweep reproduces every
// field of the committed BENCH_scale.json except the machine-dependent
// ones — the real host wall clock, the worker count and GOMAXPROCS it
// ran on, and whether this machine stayed inside the wall budget.
func TestScaleArtifactPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full default sweep")
	}
	out := filepath.Join(t.TempDir(), "scale.json")
	if _, err := scaleSweep.run(nil, 0, out, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	modeled := func(blob []byte) map[string]any {
		var rep map[string]any
		if err := json.Unmarshal(blob, &rep); err != nil {
			t.Fatal(err)
		}
		delete(rep, "gomaxprocs")
		delete(rep, "within_budget")
		for _, sc := range rep["scenarios"].([]any) {
			row := sc.(map[string]any)
			delete(row, "host_wall_s")
			delete(row, "host_ops_per_s_real")
			delete(row, "host_workers")
		}
		return rep
	}
	if g, w := modeled(got), modeled([]byte(repoArtifact(t, "BENCH_scale.json"))); !reflect.DeepEqual(g, w) {
		t.Fatalf("regenerated BENCH_scale.json differs from the committed artifact in a modeled field (regenerate with `make scale` if intentional):\ngot  %v\nwant %v", g, w)
	}
}

// TestServeExplicitFIFOMatchesDefault: a Serve run with an explicit
// FIFOScheduler factory is identical to the nil-scheduler default the
// serve experiment's cells use, so the BENCH_serve.json pin really
// covers the extracted policy and not a divergent default.
func TestServeExplicitFIFOMatchesDefault(t *testing.T) {
	run := func(factory func() host.Scheduler) host.ServeResult {
		res, err := host.Serve(host.ServeConfig{
			Map: host.PartitionedMapConfig{
				DPUs: 2, Tasklets: 8,
				STM: core.Config{Algorithm: core.NOrec}, Mode: host.Pipelined,
			},
			Submit: host.SubmitterConfig{MaxBatch: 32, MaxDelaySeconds: 300e-6},
			Traffic: host.TrafficConfig{
				Ops: 300, Rate: 2e5, ReadPct: 90, Keyspace: 128, ZipfS: 1.2, Seed: 1,
			},
			Scheduler: factory,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def := run(nil)
	exp := run(func() host.Scheduler { return host.NewFIFOScheduler(32, 300e-6) })
	def.ZeroHostClock()
	exp.ZeroHostClock()
	if !reflect.DeepEqual(def, exp) {
		t.Fatalf("explicit FIFOScheduler diverged from the nil default:\n%+v\n%+v", def, exp)
	}
	if def.Ops != 300 || def.Batches == 0 {
		t.Fatalf("degenerate run: %+v", def)
	}
}
