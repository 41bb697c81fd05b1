package workload

import (
	"fmt"
	"sort"
	"strings"

	"pimstm/internal/host"
)

// This file is the scenario-matrix generator: a benchmark declares its
// axes (workload, fleet size, skew, …), the value domain of each, and
// the exclusion predicates that carve out meaningless combinations
// (cross-DPU fractions on a one-DPU fleet, the split policy on
// read-only traffic). Expand turns that declaration into a covering
// cell set — every axis value and every achievable pair of axis values
// appears in at least one selected cell — so the apps benchmark sweeps
// the interaction space without paying the full cartesian product.

// Axis is one benchmark dimension and its value domain, in declared
// (and therefore artifact) order.
type Axis struct {
	Name   string
	Values []string
}

// Cell is one concrete scenario: axis name → chosen value.
type Cell map[string]string

// Predicate names one exclusion rule. Reject returns true for cells
// the rule forbids; the first rejecting predicate (declared order)
// claims the cell in the coverage accounting.
type Predicate struct {
	Name   string
	Reject func(Cell) bool
}

// Matrix is the full declaration Expand consumes.
type Matrix struct {
	Axes       []Axis
	Predicates []Predicate
	// MinCells pads the covering set with extra valid cells (seeded
	// choice) up to this floor; 0 keeps the bare pairwise cover.
	MinCells int
}

// Coverage summarizes one expansion — the artifact embeds it so a
// reader can audit what the sweep did and did not reach.
type Coverage struct {
	// RawCells is the full cartesian product size; ValidCells survives
	// the predicates; Selected is the emitted cell count.
	RawCells, ValidCells, Selected int
	// Excluded counts rejected cells per predicate name.
	Excluded map[string]int
	// PairsTotal is the number of achievable axis-value pairs (pairs no
	// valid cell exhibits are impossible by predicate and excluded);
	// PairsCovered is how many the selected cells exhibit — equal by
	// construction, kept separate so the artifact states it.
	PairsTotal, PairsCovered int
	// AxisValues echoes the declared domains, axis order preserved.
	AxisValues map[string][]string
}

// CellID renders a cell as "axis=value,…" in declared axis order — the
// stable identity used for artifact rows and sorting.
func (m Matrix) CellID(c Cell) string {
	parts := make([]string, len(m.Axes))
	for i, ax := range m.Axes {
		parts[i] = ax.Name + "=" + c[ax.Name]
	}
	return strings.Join(parts, ",")
}

func (m Matrix) validate() error {
	if len(m.Axes) == 0 {
		return fmt.Errorf("workload: matrix needs at least one axis")
	}
	seen := map[string]bool{}
	for _, ax := range m.Axes {
		if ax.Name == "" || seen[ax.Name] {
			return fmt.Errorf("workload: axis name %q empty or duplicated", ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("workload: axis %q has no values", ax.Name)
		}
		vals := map[string]bool{}
		for _, v := range ax.Values {
			if v == "" || vals[v] {
				return fmt.Errorf("workload: axis %q value %q empty or duplicated", ax.Name, v)
			}
			vals[v] = true
		}
	}
	return nil
}

// pairKey identifies one (axis=value, axis=value) combination; axis
// indices are ordered, so the key is canonical.
type pairKey struct {
	axA, axB   int
	valA, valB string
}

func (m Matrix) cellPairs(c Cell) []pairKey {
	var out []pairKey
	for a := 0; a < len(m.Axes); a++ {
		for b := a + 1; b < len(m.Axes); b++ {
			out = append(out, pairKey{a, b, c[m.Axes[a].Name], c[m.Axes[b].Name]})
		}
	}
	return out
}

// Cells enumerates the cartesian product in odometer order (first axis
// slowest, the order nested loops over the axes would visit) and drops
// every cell a predicate rejects. The returned Coverage carries the raw,
// valid and per-predicate excluded counts plus the declared domains.
func (m Matrix) Cells() ([]Cell, Coverage, error) {
	if err := m.validate(); err != nil {
		return nil, Coverage{}, err
	}
	cov := Coverage{Excluded: map[string]int{}, AxisValues: map[string][]string{}}
	for _, ax := range m.Axes {
		cov.AxisValues[ax.Name] = append([]string(nil), ax.Values...)
	}
	var valid []Cell
	idx := make([]int, len(m.Axes))
	for {
		c := Cell{}
		for i, ax := range m.Axes {
			c[ax.Name] = ax.Values[idx[i]]
		}
		cov.RawCells++
		rejected := false
		for _, p := range m.Predicates {
			if p.Reject(c) {
				cov.Excluded[p.Name]++
				rejected = true
				break
			}
		}
		if !rejected {
			valid = append(valid, c)
		}
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(m.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	cov.ValidCells = len(valid)
	if len(valid) == 0 {
		return nil, Coverage{}, fmt.Errorf("workload: predicates rejected every cell")
	}
	return valid, cov, nil
}

// Expand takes the valid cells of Cells, verifies every declared axis
// value survives in at least one of them (a domain value no cell can
// use is a declaration bug, not a sweep gap), and greedily selects a
// pairwise-covering subset, padded to MinCells. Deterministic per seed:
// the same declaration and seed always emit the same cells in the same
// order.
func (m Matrix) Expand(seed uint64) ([]Cell, Coverage, error) {
	valid, cov, err := m.Cells()
	if err != nil {
		return nil, Coverage{}, err
	}

	// Axis-value completeness: a declared value no valid cell carries
	// can never be benchmarked — fail loudly at declaration time.
	for _, ax := range m.Axes {
		for _, v := range ax.Values {
			found := false
			for _, c := range valid {
				if c[ax.Name] == v {
					found = true
					break
				}
			}
			if !found {
				return nil, Coverage{}, fmt.Errorf("workload: axis %s=%s appears in no valid cell (predicates exclude it entirely)", ax.Name, v)
			}
		}
	}

	// The achievable pair universe.
	uncovered := map[pairKey]bool{}
	for _, c := range valid {
		for _, p := range m.cellPairs(c) {
			uncovered[p] = true
		}
	}
	cov.PairsTotal = len(uncovered)

	// Seeded scan order, then greedy max-gain selection with
	// first-in-order tie-breaking — deterministic per seed.
	order := make([]int, len(valid))
	for i := range order {
		order[i] = i
	}
	rng := host.Rand64(seed*0x9E3779B97F4A7C15 + 0xB5297A4D3F84D5B5)
	for i := len(order) - 1; i > 0; i-- {
		j := int(rng.Next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	selected := map[int]bool{}
	for len(uncovered) > 0 {
		best, bestGain := -1, 0
		for _, i := range order {
			if selected[i] {
				continue
			}
			gain := 0
			for _, p := range m.cellPairs(valid[i]) {
				if uncovered[p] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break // unreachable: every uncovered pair lives in some unselected cell
		}
		selected[best] = true
		for _, p := range m.cellPairs(valid[best]) {
			delete(uncovered, p)
		}
	}
	cov.PairsCovered = cov.PairsTotal - len(uncovered)

	// Pad with seeded extras up to the floor.
	for _, i := range order {
		if len(selected) >= m.MinCells || len(selected) == len(valid) {
			break
		}
		selected[i] = true
	}

	out := make([]Cell, 0, len(selected))
	for i := range selected {
		out = append(out, valid[i])
	}
	sort.Slice(out, func(a, b int) bool { return m.CellID(out[a]) < m.CellID(out[b]) })
	cov.Selected = len(out)
	return out, cov, nil
}
