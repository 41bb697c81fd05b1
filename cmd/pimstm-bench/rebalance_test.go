package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// findRow pulls one (cell, policy) row out of the sweep.
func findRow(t *testing.T, scenarios []rebalanceScenario, hotFrac float64, zipf float64, policy string) rebalanceScenario {
	t.Helper()
	for _, sc := range scenarios {
		if sc.HotWriteFrac == hotFrac && sc.ZipfS == zipf && sc.Policy == policy {
			return sc
		}
	}
	t.Fatalf("no row for hotFrac %g zipf %g policy %s", hotFrac, zipf, policy)
	return rebalanceScenario{}
}

// TestRunRebalance is the acceptance gate for the placement-policy
// ablation, on a miniature version of the artifact sweep. Three claims:
//
//  1. Uniform traffic: no policy churns, and every policy row carries
//     the exact same serving numbers as the static baseline (the
//     hysteresis guarantee — the sweep itself additionally enforces
//     split == migrate on every add-free cell).
//  2. Skewed read-heavy traffic: replication beats the static baseline
//     on both ops/s and p99, paid for by real control-plane actions.
//  3. The hot write-heavy counter cell: splitting beats migration ≥ 2×
//     on both ops/s and p99 — migration just relocates the bottleneck
//     kernel, per-DPU delta shards dissolve it.
func TestRunRebalance(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_rebalance.json")
	var sb strings.Builder
	scenarios, err := rebalanceSweep.run([]string{
		"dpus=4", "zipf=0,1.2", "reads=99",
		"rate=1.2e6", "ops=7680", "keys=2560", "batch=768",
	}, 0, out, &sb)
	if err != nil {
		t.Fatal(err)
	}
	// 3 cells (uniform, zipf 1.2, hot counter) × 4 policies.
	if len(scenarios) != 12 {
		t.Fatalf("scenarios = %d, want 12", len(scenarios))
	}

	// Uniform cell: every policy is inert and matches the baseline.
	base := findRow(t, scenarios, 0, 0, "none")
	for _, policy := range []string{"replicate", "migrate", "split"} {
		sc := findRow(t, scenarios, 0, 0, policy)
		if sc.WindowsActed != 0 || sc.KeysReplicated != 0 || sc.KeysMigrated != 0 || sc.KeysSplit != 0 {
			t.Fatalf("uniform cell churned under %s: %+v", policy, sc)
		}
		if !samePolicyNumbers(base, sc) {
			// Control-plane counters differ (WindowsEvaluated ticks), so
			// compare the serving numbers only.
			if sc.OpsPerSecond != base.OpsPerSecond || sc.P99Seconds != base.P99Seconds ||
				sc.Batches != base.Batches || sc.Makespan != base.Makespan {
				t.Fatalf("uniform cell diverged under %s:\nnone %+v\n%s %+v", policy, base, policy, sc)
			}
		}
	}

	// Skewed read-heavy cell: replication wins over static.
	skewNone := findRow(t, scenarios, 0, 1.2, "none")
	skewRepl := findRow(t, scenarios, 0, 1.2, "replicate")
	if skewRepl.OpsPerSecond <= skewNone.OpsPerSecond {
		t.Fatalf("zipf 1.2: replicate ops/s %.0f, static %.0f, want a win",
			skewRepl.OpsPerSecond, skewNone.OpsPerSecond)
	}
	if skewRepl.P99Seconds >= skewNone.P99Seconds {
		t.Fatalf("zipf 1.2: replicate p99 %.6f, static %.6f, want a win",
			skewRepl.P99Seconds, skewNone.P99Seconds)
	}
	if skewRepl.WindowsActed == 0 || skewRepl.KeysReplicated == 0 {
		t.Fatalf("skewed cell won without acting: %+v", skewRepl)
	}

	// Hot counter cell: split is the only policy that dissolves the
	// commutative bottleneck.
	hotMig := findRow(t, scenarios, 0.9, 0, "migrate")
	hotSpl := findRow(t, scenarios, 0.9, 0, "split")
	if hotSpl.KeysSplit == 0 {
		t.Fatalf("hot cell never split: %+v", hotSpl)
	}
	if gain := hotSpl.OpsPerSecond / hotMig.OpsPerSecond; gain < 2 {
		t.Fatalf("hot cell: split ops/s gain %.3fx over migrate, want ≥ 2", gain)
	}
	if gain := hotMig.P99Seconds / hotSpl.P99Seconds; gain < 2 {
		t.Fatalf("hot cell: split p99 gain %.3fx over migrate, want ≥ 2", gain)
	}

	if !strings.Contains(sb.String(), "rebalance") {
		t.Fatalf("table incomplete:\n%s", sb.String())
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report sweepReport[rebalanceScenario]
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatal(err)
	}
	if report.SchemaVersion != 2 || report.Experiment != "rebalance" || len(report.Scenarios) != 12 {
		t.Fatalf("artifact wrong: schema %d experiment %q scenarios %d",
			report.SchemaVersion, report.Experiment, len(report.Scenarios))
	}
}

// TestRunRebalanceCellSelectors pins the cells axis: "hot" runs only
// the counter cell, "uniform" only the grid, and an unknown cell or
// policy errors.
func TestRunRebalanceCellSelectors(t *testing.T) {
	var sb strings.Builder
	mini := []string{
		"dpus=4", "zipf=0", "reads=99", "policy=none",
		"rate=1.2e6", "ops=1920", "keys=2560", "batch=768",
	}
	run := func(extra ...string) ([]rebalanceScenario, error) {
		return rebalanceSweep.run(append(slices.Clone(mini), extra...), 0, "", &sb)
	}

	scenarios, err := run("cells=hot")
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 1 || scenarios[0].HotWriteFrac == 0 {
		t.Fatalf("hot selector: %+v", scenarios)
	}

	scenarios, err = run("cells=uniform")
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 1 || scenarios[0].HotWriteFrac != 0 {
		t.Fatalf("uniform selector: %+v", scenarios)
	}

	if _, err := run("cells=bogus"); err == nil {
		t.Fatal("bogus cell selector accepted")
	}

	if _, err := run("cells=uniform", "policy=bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}
