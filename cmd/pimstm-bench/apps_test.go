package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunApps is the acceptance gate for the scenario-matrix
// experiment, on a reduced cell budget. The runner itself enforces the
// hard guarantees per cell (invariant proven, guard-abort accounting
// exact, no errored transactions); this test pins the matrix-level
// contract: every workload and every declared axis value reaches at
// least one executed row, rows are sorted by cell identity, the abort
// paths actually fire somewhere in the matrix, and the artifact is
// well-formed schema-v1 JSON with a balanced coverage ledger.
func TestRunApps(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_apps.json")
	var sb strings.Builder
	scenarios, err := appsSweep.run([]string{"txns=200", "min_cells=1"}, 0, out, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) < 10 {
		t.Fatalf("only %d cells ran; the pairwise cover should need more", len(scenarios))
	}

	seen := map[string]map[string]bool{}
	guardAborts := 0
	for i, sc := range scenarios {
		if i > 0 && scenarios[i-1].Cell >= sc.Cell {
			t.Fatalf("rows unsorted: %q before %q", scenarios[i-1].Cell, sc.Cell)
		}
		if sc.Invariant != "ok" {
			t.Fatalf("cell %s published invariant %q", sc.Cell, sc.Invariant)
		}
		if sc.GuardAborts != sc.Aborted {
			t.Fatalf("cell %s: guard aborts %d != aborted %d", sc.Cell, sc.GuardAborts, sc.Aborted)
		}
		guardAborts += sc.GuardAborts
		for axis, v := range sc.Axes {
			if seen[axis] == nil {
				seen[axis] = map[string]bool{}
			}
			seen[axis][v] = true
		}
	}
	for _, ax := range appsSweep.axes {
		for _, v := range strings.Split(ax.values, ",") {
			if !seen[ax.name][v] {
				t.Fatalf("axis %s=%s never executed", ax.name, v)
			}
		}
	}
	if guardAborts == 0 {
		t.Fatal("no cell exercised the guard-abort path")
	}

	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep appsReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != 1 || rep.Experiment != "apps" {
		t.Fatalf("artifact header: %+v", rep)
	}
	if len(rep.Scenarios) != len(scenarios) {
		t.Fatalf("artifact has %d rows, run produced %d", len(rep.Scenarios), len(scenarios))
	}
	excluded := 0
	for _, n := range rep.Coverage.Excluded {
		excluded += n
	}
	if rep.Coverage.RawCells != rep.Coverage.ValidCells+excluded {
		t.Fatalf("coverage ledger off: %+v", rep.Coverage)
	}
	if rep.Coverage.PairsCovered != rep.Coverage.PairsTotal {
		t.Fatalf("pairwise cover incomplete: %+v", rep.Coverage)
	}
}

// TestRunAppsDeterministic: same options, byte-identical artifact.
func TestRunAppsDeterministic(t *testing.T) {
	run := func(path string) []byte {
		var sb strings.Builder
		if _, err := appsSweep.run([]string{"txns=150", "min_cells=1"}, 0, path, &sb); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	dir := t.TempDir()
	a := run(filepath.Join(dir, "a.json"))
	b := run(filepath.Join(dir, "b.json"))
	if string(a) != string(b) {
		t.Fatal("same-seed apps artifacts differ")
	}
}

// TestAppsArtifactPinned: the default apps sweep reproduces the
// committed BENCH_apps.json exactly.
func TestAppsArtifactPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full default sweep")
	}
	out := filepath.Join(t.TempDir(), "apps.json")
	_, err := appsSweep.run(nil, 0, out, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := repoArtifact(t, "BENCH_apps.json"); string(got) != want {
		t.Fatal("regenerated BENCH_apps.json differs from the committed artifact: the apps matrix or a serving path changed (regenerate with `make apps` if intentional)")
	}
}
