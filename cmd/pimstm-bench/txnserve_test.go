package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunTxnServe drives a miniature transactional serving sweep end to
// end: table rendered, JSON artifact written and byte-identical across
// same-seed runs, cross-DPU transactions actually coordinated, the
// mixed-fraction cells paying for their extra coordination rounds under
// FIFO, and the lane scheduler closing that cliff — lower mixed-batch
// p99 than FIFO with no throughput regression on pure streams.
func TestRunTxnServe(t *testing.T) {
	sets := []string{
		"dpus=2,4", "stm=norec", "txn=1,2", "cross=0,0.5,1", "zipf=0",
		"sched=fifo,lane", "txns=200", "keys=256", "batch=32",
	}
	run := func(out string) []txnServeScenario {
		var sb strings.Builder
		scenarios, err := txnServeSweep.run(sets, 0, out, &sb)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "coord") || !strings.Contains(sb.String(), "NOrec") ||
			!strings.Contains(sb.String(), "lane") {
			t.Fatalf("table incomplete:\n%s", sb.String())
		}
		return scenarios
	}

	out1 := filepath.Join(t.TempDir(), "a.json")
	out2 := filepath.Join(t.TempDir(), "b.json")
	scenarios := run(out1)
	run(out2)

	// Per scheduler: 2 fleets × (size 1 with cross 0 only, size 2 with
	// three fractions).
	if len(scenarios) != 16 {
		t.Fatalf("scenarios = %d", len(scenarios))
	}
	cell := func(sched string, dpus, size int, cross float64) txnServeScenario {
		for _, sc := range scenarios {
			if sc.Scheduler == sched && sc.DPUs == dpus && sc.TxnSize == size && sc.CrossDPU == cross {
				return sc
			}
		}
		t.Fatalf("cell %s/%d/%d/%g missing", sched, dpus, size, cross)
		return txnServeScenario{}
	}
	for _, sc := range scenarios {
		if sc.P50Seconds <= 0 || sc.P50Seconds > sc.P95Seconds || sc.P95Seconds > sc.P99Seconds {
			t.Fatalf("percentiles degenerate: %+v", sc)
		}
		if sc.OpsPerSecond <= 0 || sc.Batches == 0 {
			t.Fatalf("degenerate cell: %+v", sc)
		}
		if sc.Ops != sc.Txns*sc.TxnSize {
			t.Fatalf("op accounting off: %+v", sc)
		}
		if sc.CrossDPU == 0 && sc.CoordinatedTxns != 0 {
			t.Fatalf("confined cell coordinated %d txns: %+v", sc.CoordinatedTxns, sc)
		}
		if sc.CrossDPU == 0 && (sc.GatherSeconds != 0 || sc.ApplySeconds != 0 || sc.WritebackSeconds != 0) {
			t.Fatalf("confined cell recorded coordination phases: %+v", sc)
		}
		if sc.CrossDPU > 0 && sc.TxnSize > 1 &&
			(sc.GatherSeconds <= 0 || sc.ApplySeconds <= 0 || sc.WritebackSeconds <= 0) {
			t.Fatalf("coordinating cell missing a phase split: %+v", sc)
		}
		if sc.CrossDPU == 1 && sc.TxnSize > 1 && sc.CoordinatedTxns != sc.Txns {
			t.Fatalf("cross cell coordinated only %d/%d txns", sc.CoordinatedTxns, sc.Txns)
		}
		switch sc.Scheduler {
		case "fifo":
			if sc.ConfinedBatches != 0 || sc.CoordinatedBatches != 0 {
				t.Fatalf("fifo batches must be unlaned: %+v", sc)
			}
		case "lane":
			if sc.ConfinedBatches+sc.CoordinatedBatches != sc.Batches {
				t.Fatalf("lane batches must partition Batches: %+v", sc)
			}
			if sc.CrossDPU == 0 && sc.CoordinatedBatches != 0 {
				t.Fatalf("pure confined cell flushed coordinated batches: %+v", sc)
			}
			if sc.CrossDPU == 1 && sc.TxnSize > 1 && sc.ConfinedBatches != 0 {
				t.Fatalf("pure cross cell flushed confined batches: %+v", sc)
			}
		}
	}
	for _, dpus := range []int{2, 4} {
		mixed := cell("fifo", dpus, 2, 0.5)
		pure0 := cell("fifo", dpus, 2, 0)
		pure1 := cell("fifo", dpus, 2, 1)
		if mixed.P99Seconds <= pure0.P99Seconds || mixed.P99Seconds <= pure1.P99Seconds {
			t.Fatalf("%d DPUs: mixed FIFO batches must pay the extra coordination rounds: p99 %.6f vs %.6f/%.6f",
				dpus, mixed.P99Seconds, pure0.P99Seconds, pure1.P99Seconds)
		}

		// The scheduler-axis acceptance: homogeneous lanes cut the
		// mixed-batch tail and never regress the pure streams.
		lmixed := cell("lane", dpus, 2, 0.5)
		if lmixed.P99Seconds >= mixed.P99Seconds {
			t.Fatalf("%d DPUs: lane scheduling must cut the mixed-batch p99: %.6f vs fifo %.6f",
				dpus, lmixed.P99Seconds, mixed.P99Seconds)
		}
		for _, cross := range []float64{0, 1} {
			f, l := cell("fifo", dpus, 2, cross), cell("lane", dpus, 2, cross)
			if l.OpsPerSecond < f.OpsPerSecond {
				t.Fatalf("%d DPUs cross %g: lane throughput regressed: %.0f vs %.0f",
					dpus, cross, l.OpsPerSecond, f.OpsPerSecond)
			}
		}
		// A pure confined stream takes the identical serving path.
		if f, l := cell("fifo", dpus, 2, 0), cell("lane", dpus, 2, 0); f.P99Seconds != l.P99Seconds || f.OpsPerSecond != l.OpsPerSecond {
			t.Fatalf("%d DPUs: pure confined stream must be identical under lane: %+v vs %+v", dpus, l, f)
		}
	}

	// Same seed ⇒ byte-identical artifact.
	a, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("same-seed txnserve artifacts differ")
	}

	var report sweepReport[txnServeScenario]
	if err := json.Unmarshal(a, &report); err != nil {
		t.Fatal(err)
	}
	if report.SchemaVersion != 3 || report.Experiment != "txnserve" || len(report.Scenarios) != 16 {
		t.Fatalf("artifact wrong: %+v", report)
	}
}

// TestNewServeScheduler: every sweepable name resolves, unknown names
// are rejected with the valid list.
func TestNewServeScheduler(t *testing.T) {
	for _, name := range []string{"lane", "adaptive"} {
		f, err := newServeScheduler(name, 32, 300e-6)
		if err != nil || f == nil {
			t.Fatalf("%s: factory nil=%v, err=%v", name, f == nil, err)
		}
		if got := f().Name(); got != name {
			t.Fatalf("factory for %q built a %q scheduler", name, got)
		}
	}
	if f, err := newServeScheduler("fifo", 32, 300e-6); err != nil || f != nil {
		t.Fatalf("fifo must map to the submitter default (nil factory), got nil=%v, err=%v", f == nil, err)
	}
	if _, err := newServeScheduler("sjf", 32, 300e-6); err == nil || !strings.Contains(err.Error(), "fifo, lane, adaptive") {
		t.Fatalf("unknown scheduler accepted or error unhelpful: %v", err)
	}
}
