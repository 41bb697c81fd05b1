// Command pimstm-bench regenerates the tables and figures of the
// PIM-STM paper's evaluation (§4) on the simulated UPMEM system.
//
// Usage:
//
//	pimstm-bench -experiment fig4            # Fig 4 (MRAM: ArrayBench, Linked-List)
//	pimstm-bench -experiment fig5            # Fig 5 (MRAM: KMeans, Labyrinth)
//	pimstm-bench -experiment fig6            # Fig 6a+6b (normalized peak throughput)
//	pimstm-bench -experiment fig7            # Fig 7a+7b (multi-DPU speedups)
//	pimstm-bench -experiment fig8            # Fig 8 (speedup + energy at full fleet)
//	pimstm-bench -experiment fig9            # Fig 9 (WRAM: ArrayBench, Linked-List)
//	pimstm-bench -experiment fig10           # Fig 10 (WRAM: KMeans)
//	pimstm-bench -experiment latency         # §3.1 latency comparison
//	pimstm-bench -experiment tiers           # §4.2.3 WRAM-vs-MRAM gains
//	pimstm-bench -experiment multidpu        # fleet serving sweep (beyond the paper)
//	pimstm-bench -experiment serve           # open-loop adaptive-batching sweep
//	pimstm-bench -experiment rebalance       # static vs skew-adaptive placement sweep
//	pimstm-bench -experiment txnserve        # multi-key transaction serving sweep
//	pimstm-bench -experiment scale           # paper-scale sampled-fleet serving sweep
//	pimstm-bench -experiment apps            # application-workload scenario matrix
//	pimstm-bench -experiment all             # everything above
//
// -scale trades fidelity for speed (1.0 = paper-sized workloads);
// -seeds controls the run-averaging count (the paper averages 10 runs).
//
// The six serving experiments (multidpu, serve, rebalance, txnserve,
// scale, apps) are declared sweeps (sweep.go). `-set name=v1,v2`
// (repeatable) replaces the values of one of the experiment's axes or
// knobs, e.g. `-experiment serve -set dpus=2 -set rate=150000`; an
// unknown name or a malformed value exits 1 listing what is settable.
// -out names the JSON artifact (default BENCH_<experiment>.json, ""
// writes none); same settings ⇒ byte-identical artifact, except the
// scale artifact's real wall-clock fields. -parallelism picks the host
// worker pool and never changes an artifact.
//
// -cpuprofile and -memprofile write pprof profiles of whatever
// experiment ran (the memory profile is taken at exit), for chasing
// host-side hot spots and allocation regressions.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"pimstm/internal/core"
	"pimstm/internal/dpu"
	"pimstm/internal/harness"
	"pimstm/internal/host"
)

// experimentList names every experiment, in the order `all` runs them.
var experimentList = []string{
	"latency", "fig4", "fig5", "fig6", "fig9", "fig10", "tiers",
	"fig7", "fig8", "multidpu", "serve", "rebalance", "txnserve",
	"scale", "apps",
}

func main() {
	var (
		experiment  = flag.String("experiment", "all", strings.Join(experimentList, "|")+"|all")
		parallelism = flag.Int("parallelism", 0, "host-side worker pool for batch phases and DPU simulation (0 = GOMAXPROCS, N = N workers; modeled output is identical for every setting)")
		scale       = flag.Float64("scale", 0.5, "workload scale factor (1.0 = paper sizes)")
		seeds       = flag.Int("seeds", 3, "runs to average per point (paper: 10)")
		tasklets    = flag.String("tasklets", "1,3,5,7,9,11", "comma-separated tasklet counts")
		dpus        = flag.String("dpus", "1,64,256,1024,2500", "comma-separated fleet sizes for fig7")
		fleet       = flag.Int("fleet", 2500, "fleet size for fig8")
		points      = flag.Int("points-per-dpu", 2000, "KMeans shard size for fig7/fig8 (paper: 200000)")
		paths       = flag.Int("paths", 40, "Labyrinth paths per instance for fig7/fig8 (paper: 100)")

		out  = flag.String("out", "BENCH_<experiment>.json", "serving experiments' JSON artifact path (empty = don't write)")
		sets setFlags

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Var(&sets, "set", "serving experiments: axis=v1,v2 replaces an axis's or knob's values (repeatable)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // report live objects, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	opt := harness.Options{Scale: *scale}
	for i := 0; i < *seeds; i++ {
		opt.Seeds = append(opt.Seeds, uint64(i+1))
	}
	var err error
	if opt.Tasklets, err = parseInts(*tasklets); err != nil {
		fatal(err)
	}
	fleetOpt := host.Fig7Options{PointsPerDPU: *points, PathsPerInstance: *paths}
	if fleetOpt.DPUCounts, err = parseInts(*dpus); err != nil {
		fatal(err)
	}

	run := func(name string) {
		if sweep, ok := sweeps[name]; ok {
			if err := sweep(sets, *parallelism, strings.ReplaceAll(*out, "<experiment>", name), os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
		if len(sets) > 0 {
			fatal(fmt.Errorf("experiment %s takes no -set", name))
		}
		switch name {
		case "fig4", "fig5", "fig9", "fig10":
			fig, err := harness.RunFigure(name, opt)
			if err != nil {
				fatal(err)
			}
			fig.Render(os.Stdout)
		case "fig6":
			rows, err := harness.Fig6(dpu.MRAM, opt)
			if err != nil {
				fatal(err)
			}
			harness.RenderFig6(os.Stdout, "fig6a: normalized peak throughput, metadata in MRAM", rows)
			rows, err = harness.Fig6(dpu.WRAM, opt)
			if err != nil {
				fatal(err)
			}
			harness.RenderFig6(os.Stdout, "fig6b: normalized peak throughput, metadata in WRAM", rows)
		case "fig7":
			km, err := host.Fig7KMeans(fleetOpt)
			if err != nil {
				fatal(err)
			}
			host.RenderFig7(os.Stdout, "fig7a: KMeans speedup vs CPU", km)
			lab, err := host.Fig7Labyrinth(fleetOpt)
			if err != nil {
				fatal(err)
			}
			host.RenderFig7(os.Stdout, "fig7b: Labyrinth speedup vs CPU", lab)
		case "fig8":
			rows, err := host.Fig8(*fleet, fleetOpt)
			if err != nil {
				fatal(err)
			}
			host.RenderFig8(os.Stdout, rows)
		case "latency":
			local := harness.LocalMRAMReadLatency()
			inter := host.InterDPURead64Seconds()
			fmt.Printf("== §3.1 latency comparison ==\n")
			fmt.Printf("local MRAM 64-bit read:    %8.0f ns   (paper: 231 ns)\n", local)
			fmt.Printf("inter-DPU 64-bit read:     %8.0f ns   (paper: 331 µs)\n", inter*1e9)
			fmt.Printf("ratio:                     %8.0fx   (paper: ~1433x, \"three orders of magnitude\")\n",
				inter*1e9/local)
		case "tiers":
			fmt.Printf("== §4.2.3 WRAM-metadata peak-throughput gains (NOrec unless noted) ==\n")
			var gains []float64
			for _, spec := range harness.Specs() {
				if !spec.SupportsWRAM {
					continue
				}
				g, err := harness.TierGain(spec, core.NOrec, opt)
				if err != nil {
					fatal(err)
				}
				gains = append(gains, g)
				fmt.Printf("%-16s %6.2fx\n", spec.Name, g)
			}
			fmt.Printf("geometric mean:  %6.2fx   (paper: 2.86x over tx-heavy workloads, ~5%% for KMeans LC)\n",
				geomean(gains))
		default:
			fatal(fmt.Errorf("unknown experiment %q (valid: %s, all)",
				name, strings.Join(experimentList, ", ")))
		}
	}

	if *experiment == "all" {
		for _, name := range experimentList {
			run(name)
			fmt.Println()
		}
		return
	}
	run(*experiment)
}

// sweeps are the declared serving experiments.
var sweeps = map[string]func(sets []string, par int, out string, w io.Writer) error{
	"multidpu":  multiDPUSweep.main,
	"serve":     serveSweep.main,
	"rebalance": rebalanceSweep.main,
	"txnserve":  txnServeSweep.main,
	"scale":     scaleSweep.main,
	"apps":      appsSweep.main,
}

// setFlags collects the repeatable -set flag.
type setFlags []string

func (s *setFlags) String() string     { return strings.Join(*s, " ") }
func (s *setFlags) Set(v string) error { *s = append(*s, v); return nil }

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	p := 1.0
	for _, x := range xs {
		p *= x
	}
	return math.Pow(p, 1/float64(len(xs)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pimstm-bench:", err)
	os.Exit(1)
}
