package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pimstm/internal/core"
	"pimstm/internal/workload"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 3,11")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 11 {
		t.Fatalf("parseInts = %v", got)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad list accepted")
	}
}

// TestRunMultiDPU drives a miniature sweep end to end: table rendered,
// JSON artifact written and parseable, and the pipelined wall-clock
// beating the lockstep baseline in every scenario.
func TestRunMultiDPU(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_multidpu.json")
	var sb strings.Builder
	scenarios, err := multiDPUSweep.run([]string{
		"dpus=1,4", "stm=norec", "reads=90", "batches=3", "ops=48", "tasklets=4",
	}, 0, out, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 2 {
		t.Fatalf("scenarios = %d", len(scenarios))
	}
	for _, sc := range scenarios {
		if sc.PipelinedSeconds >= sc.LockstepSeconds {
			t.Fatalf("%d DPUs: pipelined %.6fs not beating lockstep %.6fs",
				sc.DPUs, sc.PipelinedSeconds, sc.LockstepSeconds)
		}
		if sc.OpsPerSecond <= 0 || sc.LaunchSeconds <= 0 || sc.TransferSeconds <= 0 {
			t.Fatalf("degenerate scenario: %+v", sc)
		}
	}
	if !strings.Contains(sb.String(), "pipelined") || !strings.Contains(sb.String(), "NOrec") {
		t.Fatalf("table incomplete:\n%s", sb.String())
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report sweepReport[multiDPUScenario]
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatal(err)
	}
	if report.SchemaVersion != 1 || report.Experiment != "multidpu" || len(report.Scenarios) != 2 {
		t.Fatalf("artifact wrong: %+v", report)
	}
}

// TestBadInputRejected: a typo'd experiment, axis or value must exit 1
// with a named error, never run nothing useful or panic. An unknown
// experiment lists the valid ones.
func TestBadInputRejected(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "pimstm-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "nosuch"}, `unknown experiment "nosuch"`},
		{[]string{"-experiment", "serve", "-set", "nosuch=1"}, "no such axis (settable: dpus, stm, zipf, rate, ops, keys, batch)"},
		{[]string{"-experiment", "multidpu", "-set", "dpus=1,x"}, `bad value "x"`},
		{[]string{"-experiment", "serve", "-set", "zipf=0,x"}, `bad value "x"`},
		{[]string{"-experiment", "multidpu", "-set", "stm=norec,nosuch"}, `bad value "nosuch"`},
		{[]string{"-experiment", "txnserve", "-set", "sched=bogus"}, "fifo, lane, adaptive"},
		{[]string{"-experiment", "rebalance", "-set", "policy=bogus"}, `unknown rebalance policy "bogus"`},
		{[]string{"-experiment", "rebalance", "-set", "cells=bogus"}, "want one of uniform, hot"},
		{[]string{"-experiment", "scale", "-set", "budget_s=60,120"}, "budget_s takes one value"},
		{[]string{"-experiment", "fig4", "-set", "dpus=1"}, "fig4 takes no -set"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: want exit 1, got %v:\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) || strings.Contains(string(out), "panic") {
			t.Fatalf("%v: want error %q, got:\n%s", tc.args, tc.want, out)
		}
	}
	out, _ := exec.Command(bin, "-experiment", "nosuch").CombinedOutput()
	for _, name := range experimentList {
		if !strings.Contains(string(out), name) {
			t.Fatalf("valid experiment %q not listed in:\n%s", name, out)
		}
	}
}

// TestSetParsesLists: -set values are trimmed list items that parse as
// the axis's type (what the removed per-type list parsers checked).
func TestSetParsesLists(t *testing.T) {
	m, knobs, err := serveSweep.resolve([]string{"zipf=0, 1.2,2e5", "stm=norec, Tiny ETLWB", "dpus=1, 3,11", "ops=7"})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	for _, ax := range m.Axes {
		got[ax.Name] = ax.Values
	}
	if !reflect.DeepEqual(got["zipf"], []string{"0", "1.2", "2e5"}) || !reflect.DeepEqual(got["dpus"], []string{"1", "3", "11"}) {
		t.Fatalf("axes = %v", got)
	}
	for i, want := range []float64{0, 1.2, 2e5} {
		if v := floatAt(workload.Cell{"zipf": got["zipf"][i]}, "zipf"); v != want {
			t.Fatalf("zipf[%d] = %g, want %g", i, v, want)
		}
	}
	for i, want := range []core.Algorithm{core.NOrec, core.TinyETLWB} {
		if a, err := core.ParseAlgorithm(got["stm"][i]); err != nil || a != want {
			t.Fatalf("stm[%d] = %v, %v", i, a, err)
		}
	}
	if intAt(knobs, "ops") != 7 || knobs["reads"] != "90" {
		t.Fatalf("knobs = %v", knobs)
	}
}

// TestSetZeroReachesRows: an explicit 0 is a value, not "use the
// default" — cross=0 alone must reach every txnserve row verbatim.
func TestSetZeroReachesRows(t *testing.T) {
	rows, err := txnServeSweep.run([]string{"cross=0", "dpus=2", "txn=2", "zipf=0", "sched=fifo", "txns=60"}, 0, "", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	for _, r := range rows {
		if r.CrossDPU != 0 || r.CoordinatedTxns != 0 {
			t.Fatalf("cross=0 did not reach the row: %+v", r)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean = %f", g)
	}
	if geomean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
	if g := geomean([]float64{3}); g != 3 {
		t.Fatalf("singleton geomean = %f", g)
	}
}
