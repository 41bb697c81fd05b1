package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunServe drives a miniature serving sweep end to end: table
// rendered, JSON artifact written, byte-identical across same-seed
// runs, and the pipelined tail beating lockstep at a saturating rate.
func TestRunServe(t *testing.T) {
	sets := []string{
		"dpus=1,4", "stm=norec", "zipf=0,1.5",
		"rate=2e5", // past lockstep capacity: queueing visible
		"ops=400", "keys=256", "batch=32",
	}
	run := func(out string) []serveScenario {
		var sb strings.Builder
		scenarios, err := serveSweep.run(sets, 0, out, &sb)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "pipe p99") || !strings.Contains(sb.String(), "NOrec") {
			t.Fatalf("table incomplete:\n%s", sb.String())
		}
		return scenarios
	}

	out1 := filepath.Join(t.TempDir(), "a.json")
	out2 := filepath.Join(t.TempDir(), "b.json")
	scenarios := run(out1)
	run(out2)

	if len(scenarios) != 4 {
		t.Fatalf("scenarios = %d", len(scenarios))
	}
	for _, sc := range scenarios {
		p, l := sc.Pipelined, sc.Lockstep
		if p.P50Seconds <= 0 || p.P50Seconds > p.P95Seconds || p.P95Seconds > p.P99Seconds {
			t.Fatalf("percentiles degenerate: %+v", sc)
		}
		if p.P99Seconds >= l.P99Seconds {
			t.Fatalf("%d DPUs zipf %g: pipelined p99 %.6fs not beating lockstep %.6fs",
				sc.DPUs, sc.ZipfS, p.P99Seconds, l.P99Seconds)
		}
		if sc.P99Gain <= 1 {
			t.Fatalf("p99 gain %.3f", sc.P99Gain)
		}
		if p.OpsPerSecond <= 0 || p.Batches == 0 || p.MeanBatchOps <= 0 {
			t.Fatalf("degenerate mode result: %+v", sc)
		}
	}

	// Same seed ⇒ byte-identical artifact (the reproducibility
	// acceptance criterion).
	a, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("same-seed serve artifacts differ")
	}

	var report sweepReport[serveScenario]
	if err := json.Unmarshal(a, &report); err != nil {
		t.Fatal(err)
	}
	if report.SchemaVersion != 1 || report.Experiment != "serve" || len(report.Scenarios) != 4 {
		t.Fatalf("artifact wrong: %+v", report)
	}
}
