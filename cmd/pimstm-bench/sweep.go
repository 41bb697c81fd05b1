package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"pimstm/internal/core"
	"pimstm/internal/host"
	"pimstm/internal/workload"
)

// The six serving experiments (multidpu, serve, rebalance, txnserve,
// scale, apps) are declarations run by one driver: a sweep names its
// axes in nested-loop order, the predicates that drop meaningless
// cells, and the function that serves one cell into the experiment's
// artifact row. `-set name=v1,v2` replaces the values of an axis or of
// a knob (a single-valued setting); everything else is a constant of
// the declaration.

// axis is one settable dimension of a sweep and its default values.
type axis struct {
	name string
	// values is the comma-separated default.
	values string
	// check rejects a malformed value before any cell runs.
	check func(string) error
}

// predicate drops the cells it rejects. first holds every axis's first
// value, so a predicate can keep one representative along an axis a
// cell ignores (rebalance's hot counter cell has no read-mix grid).
type predicate struct {
	name   string
	reject func(c, first workload.Cell) bool
}

// sweep declares one serving experiment whose artifact rows are R.
type sweep[R any] struct {
	name, title string
	schema      int
	// axes are swept in nested-loop order, outermost first.
	axes []axis
	// knobs are settable single-valued settings; fixed are the
	// experiment's constants. Both are merged into every cell.
	knobs      []axis
	fixed      workload.Cell
	predicates []predicate
	// cover runs a seeded pairwise-covering subset of the valid cells,
	// padded to the min_cells knob (workload.Matrix.Expand), instead of
	// every valid cell.
	cover bool
	// cell serves one cell; m is the resolved axis declaration.
	cell func(m workload.Matrix, c workload.Cell, par int) (R, error)
	// check, when set, validates the finished rows before anything is
	// written.
	check func(rows []R) error
	// columns and row render the stdout table.
	columns string
	row     func(R) string
	// report, when set, builds a non-default artifact; a non-nil
	// verdict fails the run after the artifact is written.
	report func(res sweepResult[R]) (artifact any, verdict error)
}

// sweepResult is what a report hook sees of a finished sweep.
type sweepResult[R any] struct {
	rows     []R
	settings workload.Cell
	cov      workload.Coverage
	par      int
	elapsed  float64 // real seconds spent serving the cells
}

// sweepReport is the default top-level JSON artifact.
type sweepReport[R any] struct {
	SchemaVersion int    `json:"schema_version"`
	Experiment    string `json:"experiment"`
	Scenarios     []R    `json:"scenarios"`
}

// main runs the sweep for the CLI.
func (s *sweep[R]) main(sets []string, par int, out string, w io.Writer) error {
	_, err := s.run(sets, par, out, w)
	return err
}

// run applies the -set overrides, serves every selected cell in order,
// renders the table to w, and writes the artifact to out ("" = don't
// write). par is the host-side worker-pool setting (0 = GOMAXPROCS).
func (s *sweep[R]) run(sets []string, par int, out string, w io.Writer) ([]R, error) {
	m, settings, err := s.resolve(sets)
	if err != nil {
		return nil, err
	}
	var cells []workload.Cell
	var cov workload.Coverage
	if s.cover {
		m.MinCells = intAt(settings, "min_cells")
		cells, cov, err = m.Expand(uint64(intAt(settings, "seed")))
	} else {
		cells, cov, err = m.Cells()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}

	start := time.Now()
	rows := make([]R, 0, len(cells))
	for _, c := range cells {
		id := m.CellID(c)
		for k, v := range settings {
			c[k] = v
		}
		r, err := s.cell(m, c, par)
		if err != nil {
			return nil, fmt.Errorf("%s cell %s: %w", s.name, id, err)
		}
		rows = append(rows, r)
	}
	elapsed := time.Since(start).Seconds()
	if s.check != nil {
		if err := s.check(rows); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}

	fmt.Fprintf(w, "== %s: %s (%d of %d valid cells) ==\n", s.name, s.title, len(cells), cov.ValidCells)
	line := make([]string, 0, len(m.Axes)+len(s.knobs))
	for _, ax := range m.Axes {
		line = append(line, ax.Name+"="+strings.Join(ax.Values, ","))
	}
	for _, k := range s.knobs {
		line = append(line, k.name+"="+settings[k.name])
	}
	fmt.Fprintln(w, strings.Join(line, " "))
	fmt.Fprintln(w, hostParHeader(par))
	fmt.Fprintln(w, s.columns)
	for _, r := range rows {
		fmt.Fprintln(w, s.row(r))
	}
	fmt.Fprintf(w, "%d cells in %.1fs real time\n", len(rows), elapsed)

	var artifact any = sweepReport[R]{SchemaVersion: s.schema, Experiment: s.name, Scenarios: rows}
	var verdict error
	if s.report != nil {
		artifact, verdict = s.report(sweepResult[R]{rows: rows, settings: settings, cov: cov, par: par, elapsed: elapsed})
	}
	if out != "" {
		blob, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "wrote %s (%d scenarios)\n", out, len(rows))
	}
	if verdict != nil {
		return nil, fmt.Errorf("%s: %w", s.name, verdict)
	}
	return rows, nil
}

// resolve applies the -set overrides to the declared axes and knobs,
// checking every value, and returns the axis matrix plus the merged
// knob and constant settings.
func (s *sweep[R]) resolve(sets []string) (workload.Matrix, workload.Cell, error) {
	values := map[string][]string{}
	for _, a := range append(slices.Clone(s.axes), s.knobs...) {
		values[a.name] = strings.Split(a.values, ",")
	}
	for _, set := range sets {
		name, list, _ := strings.Cut(set, "=")
		i := slices.IndexFunc(s.axes, func(a axis) bool { return a.name == name })
		k := slices.IndexFunc(s.knobs, func(a axis) bool { return a.name == name })
		if i < 0 && k < 0 {
			return workload.Matrix{}, nil, fmt.Errorf("%s: -set %s: no such axis (settable: %s)", s.name, set, s.settable())
		}
		vals := strings.Split(list, ",")
		var a axis
		if i >= 0 {
			a = s.axes[i]
		} else if a = s.knobs[k]; len(vals) != 1 {
			return workload.Matrix{}, nil, fmt.Errorf("%s: -set %s: %s takes one value", s.name, set, name)
		}
		for j, v := range vals {
			vals[j] = strings.TrimSpace(v)
			if err := a.check(vals[j]); err != nil {
				return workload.Matrix{}, nil, fmt.Errorf("%s: -set %s: bad value %q: %w", s.name, set, vals[j], err)
			}
		}
		values[name] = vals
	}

	var m workload.Matrix
	first := workload.Cell{}
	for _, a := range s.axes {
		m.Axes = append(m.Axes, workload.Axis{Name: a.name, Values: values[a.name]})
		first[a.name] = values[a.name][0]
	}
	for _, p := range s.predicates {
		m.Predicates = append(m.Predicates, workload.Predicate{
			Name: p.name, Reject: func(c workload.Cell) bool { return p.reject(c, first) },
		})
	}
	settings := workload.Cell{}
	for k, v := range s.fixed {
		settings[k] = v
	}
	for _, a := range s.knobs {
		settings[a.name] = values[a.name][0]
	}
	return m, settings, nil
}

// settable lists the names -set accepts.
func (s *sweep[R]) settable() string {
	var names []string
	for _, a := range append(slices.Clone(s.axes), s.knobs...) {
		names = append(names, a.name)
	}
	return strings.Join(names, ", ")
}

// Value checks for axis declarations.

func isInt(v string) error {
	_, err := strconv.Atoi(v)
	return err
}

func isFloat(v string) error {
	_, err := strconv.ParseFloat(v, 64)
	return err
}

func isAlg(v string) error {
	_, err := core.ParseAlgorithm(v)
	return err
}

func isSched(v string) error {
	_, err := newServeScheduler(v, 0, 0)
	return err
}

func isPolicy(v string) error {
	_, _, err := policyRebalance(v, 1, 1)
	return err
}

func oneOf(valid ...string) func(string) error {
	return func(v string) error {
		if !slices.Contains(valid, v) {
			return fmt.Errorf("want one of %s", strings.Join(valid, ", "))
		}
		return nil
	}
}

// intAt and floatAt read a numeric cell setting. Settable values were
// checked when the sweep resolved them; a name the cell does not carry
// reads as 0.
func intAt(c workload.Cell, name string) int {
	v, _ := strconv.Atoi(c[name])
	return v
}

func floatAt(c workload.Cell, name string) float64 {
	v, _ := strconv.ParseFloat(c[name], 64)
	return v
}

// serveConfig builds the host.ServeConfig a serving cell describes:
// dpus, tasklets, stm, batch, delay_s, ops, rate, reads, keys, zipf,
// seed, txn, cross, sched, window and the placement policy (the policy
// axis, or apps' place axis). Names the cell does not carry read as
// zero: no transaction shaping, FIFO batching, static placement.
func serveConfig(c workload.Cell, par int) (host.ServeConfig, error) {
	dpus, batch, delay := intAt(c, "dpus"), intAt(c, "batch"), floatAt(c, "delay_s")
	alg, err := core.ParseAlgorithm(c["stm"])
	if err != nil {
		return host.ServeConfig{}, err
	}
	sched, err := newServeScheduler(cmp.Or(c["sched"], "fifo"), batch, delay)
	if err != nil {
		return host.ServeConfig{}, err
	}
	placement, reb, err := policyRebalance(cmp.Or(c["policy"], c["place"], "none"), dpus, intAt(c, "window"))
	if err != nil {
		return host.ServeConfig{}, err
	}
	return host.ServeConfig{
		Map: host.PartitionedMapConfig{
			DPUs: dpus, Tasklets: intAt(c, "tasklets"),
			STM: core.Config{Algorithm: alg}, Mode: host.Pipelined,
			Placement:       placement,
			HostParallelism: par,
		},
		Submit: host.SubmitterConfig{MaxBatch: batch, MaxDelaySeconds: delay},
		Traffic: host.TrafficConfig{
			Ops: intAt(c, "ops"), Rate: floatAt(c, "rate"), ReadPct: intAt(c, "reads"),
			Keyspace: intAt(c, "keys"), ZipfS: floatAt(c, "zipf"), Seed: uint64(intAt(c, "seed")),
			TxnSize: intAt(c, "txn"), CrossDPU: floatAt(c, "cross"),
		},
		Rebalance: reb,
		Scheduler: sched,
	}, nil
}

// hostParHeader renders the host-execution context line every serving
// experiment prints under its table header: the resolved worker count
// and GOMAXPROCS. It goes to stdout only — the pinned JSON artifacts
// stay machine-independent (the scale artifact, whose schema embraces
// real wall clock, records both fields in its report header too).
func hostParHeader(par int) string {
	workers := par
	if par == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return fmt.Sprintf("host parallelism: %d worker(s), GOMAXPROCS %d",
		workers, runtime.GOMAXPROCS(0))
}
