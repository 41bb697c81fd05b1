package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"pimstm/internal/host"
)

// Shortened, small-memory variants of the three workloads: the same
// configurations with fewer transactions and 1 MiB of MRAM per DPU.
const (
	shortKVTxns = 20_000
	shortNOTxns = 3_000
	shortMRAM   = 1 << 20
)

func shortGrid(seed uint64) gridConfig {
	cfg := benchGrid(seed)
	cfg.Scale = 0.05
	cfg.MRAMSize = shortMRAM
	return cfg
}

func shortServing(t *testing.T, name string, seed uint64, par int) servingConfig {
	t.Helper()
	var sc servingConfig
	switch name {
	case "kv-fleet2500":
		sc = benchKV(seed, shortKVTxns)
	case "neworder-coord":
		var err error
		if sc, err = benchNewOrder(seed, shortNOTxns); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("no serving workload %q", name)
	}
	sc.Serve.Map.MRAMSize = shortMRAM
	sc.Serve.Map.HostParallelism = par
	return sc
}

// runShort runs one shortened repetition and fails the test on any
// error or failed check.
func runShort(t *testing.T, name string, seed uint64, par int, traced bool) *rep {
	t.Helper()
	var (
		r   *rep
		err error
	)
	if name == "stm-grid" {
		r, err = runGrid(shortGrid(seed), newRecorder(traced))
	} else {
		r, err = runServing(shortServing(t, name, seed, par), newRecorder(traced))
	}
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if r.Failed != 0 || len(r.Errors) > 0 || r.Attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d failed: %v", name, seed, r.Failed, r.Attempted, r.Errors)
	}
	return r
}

// TestFingerprintDeterministic: a rerun, a traced run and (on the
// serving workloads) the serial host path all reproduce the modeled
// fingerprint.
func TestFingerprintDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			want := runShort(t, name, defaultSeed, 0, false).Fingerprint
			if got := runShort(t, name, defaultSeed, 0, true).Fingerprint; got != want {
				t.Errorf("traced rerun fingerprint %s, want %s", got, want)
			}
			if name == "stm-grid" {
				return
			}
			if got := runShort(t, name, defaultSeed, 1, false).Fingerprint; got != want {
				t.Errorf("HostParallelism 1 fingerprint %s, want %s (HostParallelism 0)", got, want)
			}
		})
	}
}

// TestServeStepsMatchServe: the step-by-step driver reproduces
// host.Serve's modeled ServeResult for the same config.
func TestServeStepsMatchServe(t *testing.T) {
	for _, name := range workloadNames[1:] {
		t.Run(name, func(t *testing.T) {
			serveCfg := func() host.ServeConfig {
				sc := shortServing(t, name, defaultSeed, 0)
				trace, err := sc.Workload.Generate()
				if err != nil {
					t.Fatal(err)
				}
				cfg := sc.Serve
				cfg.Trace, cfg.Preload = trace, sc.Workload.Preload()
				return cfg
			}
			want, err := host.Serve(serveCfg())
			if err != nil {
				t.Fatal(err)
			}
			got, err := serveSteps(serveCfg(), newRecorder(false), -1, newRep())
			if err != nil {
				t.Fatal(err)
			}
			want.ZeroHostClock()
			got.ZeroHostClock()
			got.Results, got.Store = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("serveSteps result\n%+v\nwant host.Serve\n%+v", got, want)
			}
		})
	}
}

// TestHeldOutSeed runs every workload's checkers on the held-out seed.
func TestHeldOutSeed(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r := runShort(t, name, heldOutSeed, 0, false)
			for _, m := range endToEnd {
				if _, ok := r.Metrics[m.Name]; !ok && m.Name != "peak_rss_mib" {
					t.Errorf("metric %s missing", m.Name)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metrics in
// step with the program's.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	check := func(section string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", section, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", section, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
