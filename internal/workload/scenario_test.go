package workload

import (
	"reflect"
	"strconv"
	"testing"
)

// appsLikeMatrix mirrors the apps benchmark's shape: enough axes for
// interactions to matter and predicates that carve out the cells the
// harness cannot serve.
func appsLikeMatrix(minCells int) Matrix {
	atLeast := func(c Cell, axis string, n int) bool {
		v, _ := strconv.Atoi(c[axis])
		return v >= n
	}
	return Matrix{
		Axes: []Axis{
			{Name: "workload", Values: []string{"kv", "neworder", "auction"}},
			{Name: "dpus", Values: []string{"1", "4", "8"}},
			{Name: "zipf", Values: []string{"0", "1.1"}},
			{Name: "txn", Values: []string{"1", "3"}},
			{Name: "cross", Values: []string{"0", "0.5"}},
			{Name: "sched", Values: []string{"fifo", "lane"}},
			{Name: "place", Values: []string{"static", "migrate", "split"}},
			{Name: "stm", Values: []string{"norec", "tinyetlwb"}},
		},
		Predicates: []Predicate{
			{Name: "txn-shaping-is-kv-only", Reject: func(c Cell) bool {
				return c["txn"] != "1" && c["workload"] != "kv"
			}},
			{Name: "cross-needs-multiop-multidpu-kv", Reject: func(c Cell) bool {
				return c["cross"] != "0" && (c["workload"] != "kv" || c["txn"] == "1" || !atLeast(c, "dpus", 2))
			}},
			{Name: "placement-needs-multidpu", Reject: func(c Cell) bool {
				return c["place"] != "static" && !atLeast(c, "dpus", 2)
			}},
			{Name: "split-needs-rmw-traffic", Reject: func(c Cell) bool {
				return c["place"] == "split" && c["workload"] == "kv"
			}},
		},
		MinCells: minCells,
	}
}

func TestMatrixValidation(t *testing.T) {
	bad := []Matrix{
		{},
		{Axes: []Axis{{Name: "a"}}},
		{Axes: []Axis{{Name: "a", Values: []string{"x", "x"}}}},
		{Axes: []Axis{{Name: "a", Values: []string{"x"}}, {Name: "a", Values: []string{"y"}}}},
	}
	for i, m := range bad {
		if _, _, err := m.Expand(1); err == nil {
			t.Fatalf("matrix %d accepted: %+v", i, m)
		}
	}
}

// TestMatrixPredicatesExclude pins the exclusion semantics: no emitted
// cell violates a predicate, and the coverage ledger balances —
// raw == valid + Σ excluded.
func TestMatrixPredicatesExclude(t *testing.T) {
	m := appsLikeMatrix(32)
	cells, cov, err := m.Expand(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		for _, p := range m.Predicates {
			if p.Reject(c) {
				t.Fatalf("cell %s violates predicate %s", m.CellID(c), p.Name)
			}
		}
	}
	excluded := 0
	for _, n := range cov.Excluded {
		excluded += n
	}
	if cov.RawCells != cov.ValidCells+excluded {
		t.Fatalf("coverage ledger off: raw %d != valid %d + excluded %d", cov.RawCells, cov.ValidCells, excluded)
	}
	// The concrete rules the matrix exists to enforce.
	if cov.Excluded["cross-needs-multiop-multidpu-kv"] == 0 {
		t.Fatal("the cross-DPU exclusion never fired")
	}
	if cov.Excluded["split-needs-rmw-traffic"] == 0 {
		t.Fatal("the split-on-read-only exclusion never fired")
	}
}

// TestMatrixDeterministicPerSeed pins seeded expansion: identical per
// seed, cell order stable, and the selection honors the MinCells
// floor.
func TestMatrixDeterministicPerSeed(t *testing.T) {
	m := appsLikeMatrix(32)
	a, covA, err := m.Expand(11)
	if err != nil {
		t.Fatal(err)
	}
	b, covB, err := m.Expand(11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(covA, covB) {
		t.Fatal("same-seed expansions diverged")
	}
	if len(a) < 32 {
		t.Fatalf("selected %d cells, floor is 32", len(a))
	}
	if covA.Selected != len(a) {
		t.Fatalf("coverage says %d cells, got %d", covA.Selected, len(a))
	}
	if covA.PairsCovered != covA.PairsTotal {
		t.Fatalf("pairwise cover incomplete: %d of %d", covA.PairsCovered, covA.PairsTotal)
	}
	// A different seed still yields a valid complete cover.
	_, covC, err := m.Expand(12)
	if err != nil {
		t.Fatal(err)
	}
	if covC.PairsCovered != covC.PairsTotal {
		t.Fatalf("seed 12 cover incomplete: %d of %d", covC.PairsCovered, covC.PairsTotal)
	}
}

// TestMatrixAxisCompleteness pins the declaration contract from both
// sides: every declared axis value appears in at least one emitted
// cell, and a predicate that starves a value outright is an error,
// not a silent gap.
func TestMatrixAxisCompleteness(t *testing.T) {
	m := appsLikeMatrix(32)
	cells, _, err := m.Expand(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, ax := range m.Axes {
		for _, v := range ax.Values {
			found := false
			for _, c := range cells {
				if c[ax.Name] == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("axis %s=%s appears in no emitted cell", ax.Name, v)
			}
		}
	}
	starved := m
	starved.Predicates = append(starved.Predicates, Predicate{
		Name:   "no-auction",
		Reject: func(c Cell) bool { return c["workload"] == "auction" },
	})
	if _, _, err := starved.Expand(3); err == nil {
		t.Fatal("expansion accepted a fully starved axis value")
	}
}

// TestMatrixCellsNestedLoopOrder: Cells emits every valid cell in the
// order nested loops over the axes would (first axis slowest), drops
// rejected cells without requiring every value to survive, and keeps
// the ledger balanced.
func TestMatrixCellsNestedLoopOrder(t *testing.T) {
	m := Matrix{
		Axes: []Axis{
			{Name: "size", Values: []string{"1", "2"}},
			{Name: "cross", Values: []string{"0", "0.5"}},
		},
		Predicates: []Predicate{{Name: "single-op-cannot-cross", Reject: func(c Cell) bool {
			return c["size"] == "1" && c["cross"] != "0"
		}}},
	}
	cells, cov, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, c := range cells {
		ids = append(ids, m.CellID(c))
	}
	want := []string{"size=1,cross=0", "size=2,cross=0", "size=2,cross=0.5"}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("cells = %v, want %v", ids, want)
	}
	if cov.RawCells != 4 || cov.ValidCells != 3 || cov.Excluded["single-op-cannot-cross"] != 1 {
		t.Fatalf("coverage = %+v", cov)
	}

	// A value no valid cell carries is fine for Cells (a -set sweep may
	// ask for it); only the covering Expand treats it as a bug.
	m.Axes[1].Values = []string{"0.5"}
	m.Axes[0].Values = []string{"1", "2"}
	if cells, _, err := m.Cells(); err != nil || len(cells) != 1 {
		t.Fatalf("Cells = %v, %v", cells, err)
	}
	if _, _, err := m.Expand(1); err == nil {
		t.Fatal("Expand accepted a starved axis value")
	}
	m.Axes[0].Values = []string{"1"}
	if _, _, err := m.Cells(); err == nil {
		t.Fatal("Cells accepted a matrix whose predicates reject every cell")
	}
}
