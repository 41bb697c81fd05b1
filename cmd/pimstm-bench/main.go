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
//	pimstm-bench -experiment apps            # application-workload scenario matrix
//	pimstm-bench -experiment all             # everything above
//
// -scale trades fidelity for speed (1.0 = paper-sized workloads);
// -seeds controls the run-averaging count (the paper averages 10 runs).
//
// The multidpu experiment sweeps fleet size (-mdpu-dpus) × STM
// algorithm (-mdpu-algs) × read mix (-mdpu-reads) over the partitioned
// KV store served through the host.Fleet transfer pipeline, comparing
// pipelined against lockstep modeled wall-clock, and writes the
// machine-readable result to -mdpu-out (default BENCH_multidpu.json).
//
// The serve experiment drives deterministic open-loop traffic (Zipf
// key popularity × read mix × Poisson arrivals) through the adaptive
// host.Submitter front-end, sweeping fleet size (-serve-dpus) × STM
// algorithm (-serve-algs) × skew (-serve-skews) × arrival rate
// (-serve-rates), and reports modeled ops/s plus p50/p95/p99 latency
// for pipelined and lockstep transfers to -serve-out (default
// BENCH_serve.json). Same seed ⇒ byte-identical artifact.
//
// The rebalance experiment is the placement-policy ablation: it sweeps
// fleet size (-rebal-dpus) × traffic cell × control-plane policy
// (-rebal-policies: none, replicate, migrate, split) at one open-loop
// rate (-rebal-rate) and writes one row per (fleet, cell, policy) to
// -rebal-out (default BENCH_rebalance.json). The cells (-rebal-cells:
// all, uniform, hot) are the classic Zipf × read-mix grid
// (-rebal-skews × -rebal-reads) plus a hot write-heavy counter cell
// (-rebal-hot-keys shared counters taking -rebal-hot-write of the
// arrivals as commutative adds) — the Doppel-style contention that
// migration cannot fix and split-key execution can. Same seed ⇒
// byte-identical artifact.
//
// The txnserve experiment serves open-loop multi-key transactions
// through the Txn front-end, sweeping fleet size (-txn-dpus) ×
// transaction size (-txn-sizes) × cross-DPU fraction (-txn-cross) ×
// Zipf skew (-txn-skews) × STM algorithm (-txn-algs) × batch
// scheduler (-txn-scheds: fifo, lane, adaptive), and reports modeled
// throughput plus per-transaction commit-latency percentiles to
// -txn-out (default BENCH_txnserve.json) — the cross-DPU coordination
// cost the paper's single-DPU evaluation never measures, and how much
// of the mixed-batch cliff lane-segregated batch formation closes.
// Same seed ⇒ byte-identical artifact.
//
// The scale experiment serves the paper-sized fleet: sampled-fleet
// execution (-scale-sample representative DPUs simulated, the rest
// charged from the calibrated cost model) sweeps fleet size
// (-scale-dpus, up to the paper's 2500) × skew (-scale-skews) with a
// weak-scaled workload, reports modeled ops/s and latency percentiles
// to -scale-out (default BENCH_scale.json), and records whether the
// whole sweep finished inside the pinned real-time budget
// (-scale-budget-s).
//
// The apps experiment replaces hand-enumerated sweeps with a declared
// scenario matrix: application workloads (kv, TPC-C-style neworder,
// RUBiS-style auction) × fleet size × skew × transaction shape ×
// cross-DPU fraction × scheduler × placement policy × STM algorithm,
// with exclusion predicates carving out meaningless cells and a seeded
// pairwise-covering expansion (-apps-min-cells floor) choosing which
// cells run. Every cell serves a deterministic application trace and
// then proves the workload's conservation invariant (e.g. Σstock +
// Σordered == initial) against the served store; rows land in
// -apps-out (default BENCH_apps.json) with per-cell axis tags,
// guard-abort counts, and a coverage audit block. Same seed ⇒
// byte-identical artifact.
//
// -cpuprofile and -memprofile write pprof profiles of whatever
// experiment ran (the memory profile is taken at exit), for chasing
// host-side hot spots and allocation regressions.
package main

import (
	"flag"
	"fmt"
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

		mdpuDPUs    = flag.String("mdpu-dpus", "1,8,64", "comma-separated fleet sizes for multidpu")
		mdpuAlgs    = flag.String("mdpu-algs", "norec,tinyetlwb,vretlwb", "comma-separated STM algorithms for multidpu")
		mdpuReads   = flag.String("mdpu-reads", "90,50", "comma-separated read percentages for multidpu")
		mdpuBatches = flag.Int("mdpu-batches", 6, "streamed batches per multidpu scenario")
		mdpuOps     = flag.Int("mdpu-ops", 256, "operations per multidpu batch")
		mdpuOut     = flag.String("mdpu-out", "BENCH_multidpu.json", "multidpu JSON artifact path (empty = don't write)")

		serveDPUs    = flag.String("serve-dpus", "1,8", "comma-separated fleet sizes for serve")
		serveAlgs    = flag.String("serve-algs", "norec,tinyetlwb", "comma-separated STM algorithms for serve")
		serveSkews   = flag.String("serve-skews", "0,1.2", "comma-separated Zipf exponents for serve (0 = uniform)")
		serveRates   = flag.String("serve-rates", "40000,200000", "comma-separated open-loop arrival rates (ops per modeled second)")
		serveReads   = flag.Int("serve-reads", 90, "read percentage of the serve traffic")
		serveOps     = flag.Int("serve-ops", 1200, "operations per serve scenario")
		serveKeys    = flag.Int("serve-keys", 512, "distinct keys in the serve traffic")
		serveBatch   = flag.Int("serve-batch", 64, "submitter MaxBatch for serve")
		serveDelayUS = flag.Float64("serve-delay-us", 300, "submitter MaxDelay in modeled microseconds")
		serveSeed    = flag.Uint64("serve-seed", 1, "traffic seed for serve")
		serveOut     = flag.String("serve-out", "BENCH_serve.json", "serve JSON artifact path (empty = don't write)")

		rebalDPUs     = flag.String("rebal-dpus", "4,8", "comma-separated fleet sizes for rebalance")
		rebalSkews    = flag.String("rebal-skews", "0,1.2", "comma-separated Zipf exponents for rebalance (0 = uniform)")
		rebalReads    = flag.String("rebal-reads", "99,50", "comma-separated read percentages for rebalance")
		rebalPolicies = flag.String("rebal-policies", "none,replicate,migrate,split", "comma-separated control-plane policies for rebalance")
		rebalCells    = flag.String("rebal-cells", "all", "rebalance cell families: all, uniform (Zipf × read-mix grid) or hot (counter cell)")
		rebalHotKeys  = flag.Int("rebal-hot-keys", 1, "shared counters in the hot rebalance cell")
		rebalHotWrite = flag.Float64("rebal-hot-write", 0.9, "fraction of hot-cell arrivals that are commutative counter adds")
		rebalRate     = flag.Float64("rebal-rate", 3e6, "open-loop arrival rate for rebalance (ops per modeled second)")
		rebalOps      = flag.Int("rebal-ops", 38400, "operations per rebalance scenario")
		rebalKeys     = flag.Int("rebal-keys", 10240, "distinct keys in the rebalance traffic")
		rebalBatch    = flag.Int("rebal-batch", 2560, "submitter MaxBatch for rebalance")
		rebalWindow   = flag.Int("rebal-window", 1, "rebalancer decision window in batches")
		rebalSeed     = flag.Uint64("rebal-seed", 1, "traffic seed for rebalance")
		rebalOut      = flag.String("rebal-out", "BENCH_rebalance.json", "rebalance JSON artifact path (empty = don't write)")

		txnDPUs    = flag.String("txn-dpus", "2,8", "comma-separated fleet sizes for txnserve")
		txnAlgs    = flag.String("txn-algs", "norec", "comma-separated STM algorithms for txnserve")
		txnSizes   = flag.String("txn-sizes", "1,2,4", "comma-separated ops-per-transaction points for txnserve")
		txnCross   = flag.String("txn-cross", "0,0.5,1", "comma-separated cross-DPU transaction fractions for txnserve")
		txnSkews   = flag.String("txn-skews", "0,1.2", "comma-separated Zipf exponents for txnserve (0 = uniform)")
		txnScheds  = flag.String("txn-scheds", "fifo,lane", "comma-separated batch schedulers for txnserve (fifo, lane, adaptive)")
		txnRate    = flag.Float64("txn-rate", 4e4, "open-loop arrival rate for txnserve (transactions per modeled second)")
		txnReads   = flag.Int("txn-reads", 80, "read percentage of the txnserve traffic")
		txnCount   = flag.Int("txn-txns", 500, "transactions per txnserve scenario")
		txnKeys    = flag.Int("txn-keys", 512, "distinct keys in the txnserve traffic")
		txnBatch   = flag.Int("txn-batch", 64, "submitter MaxBatch (ops) for txnserve")
		txnDelayUS = flag.Float64("txn-delay-us", 300, "submitter MaxDelay in modeled microseconds for txnserve")
		txnSeed    = flag.Uint64("txn-seed", 1, "traffic seed for txnserve")
		txnOut     = flag.String("txn-out", "BENCH_txnserve.json", "txnserve JSON artifact path (empty = don't write)")

		scaleDPUs   = flag.String("scale-dpus", "64,256,1024,2500", "comma-separated fleet sizes for scale")
		scaleSample = flag.Int("scale-sample", 8, "simulated representative DPUs per scale point")
		scaleSkews  = flag.String("scale-skews", "0,1.2", "comma-separated Zipf exponents for scale (0 = uniform)")
		scaleBudget = flag.Float64("scale-budget-s", 120, "pinned real-time budget for the whole scale sweep, seconds")
		scaleKeysPD = flag.Int("scale-keys-per-dpu", 32, "distinct keys per DPU in the scale traffic")
		scaleOpsPD  = flag.Int("scale-ops-per-dpu", 16, "trace length per DPU in the scale traffic")
		scaleRatePD = flag.Float64("scale-rate-per-dpu", 4e3, "open-loop arrival rate per DPU (ops per modeled second)")
		scaleBatch  = flag.Int("scale-batch", 4096, "submitter MaxBatch (ops) for scale")
		scaleSeed   = flag.Uint64("scale-seed", 1, "traffic seed for scale")
		scaleStrict = flag.Bool("scale-strict-budget", false, "fail (non-zero exit) when the scale sweep blows its wall-clock budget")
		scaleOut    = flag.String("scale-out", "BENCH_scale.json", "scale JSON artifact path (empty = don't write)")

		appsTxns     = flag.Int("apps-txns", 400, "transactions per apps cell")
		appsRate     = flag.Float64("apps-rate", 2e5, "open-loop arrival rate for apps (transactions per modeled second)")
		appsKeys     = flag.Int("apps-keys", 128, "distinct keys in the apps KV cells")
		appsReads    = flag.Int("apps-reads", 80, "read percentage of the apps KV traffic")
		appsBatch    = flag.Int("apps-batch", 48, "submitter MaxBatch (ops) for apps")
		appsDelayUS  = flag.Float64("apps-delay-us", 300, "submitter MaxDelay in modeled microseconds for apps")
		appsMinCells = flag.Int("apps-min-cells", 32, "pad the covering cell set to at least this many cells")
		appsSeed     = flag.Uint64("apps-seed", 1, "matrix-expansion and traffic seed for apps")
		appsOut      = flag.String("apps-out", "BENCH_apps.json", "apps JSON artifact path (empty = don't write)")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
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
		case "multidpu":
			mopt := multiDPUOptions{
				Batches:     *mdpuBatches,
				OpsPerBatch: *mdpuOps,
				Parallelism: *parallelism,
				Out:         *mdpuOut,
			}
			var err error
			if mopt.Fleets, err = parseInts(*mdpuDPUs); err != nil {
				fatal(err)
			}
			if mopt.Algs, err = parseAlgorithms(*mdpuAlgs); err != nil {
				fatal(err)
			}
			if mopt.ReadPcts, err = parseInts(*mdpuReads); err != nil {
				fatal(err)
			}
			if _, err := runMultiDPU(mopt, os.Stdout); err != nil {
				fatal(err)
			}
		case "serve":
			sopt := serveOptions{
				ReadPct:         *serveReads,
				Ops:             *serveOps,
				Keyspace:        *serveKeys,
				MaxBatch:        *serveBatch,
				MaxDelaySeconds: *serveDelayUS * 1e-6,
				Seed:            *serveSeed,
				Parallelism:     *parallelism,
				Out:             *serveOut,
			}
			var err error
			if sopt.Fleets, err = parseInts(*serveDPUs); err != nil {
				fatal(err)
			}
			if sopt.Algs, err = parseAlgorithms(*serveAlgs); err != nil {
				fatal(err)
			}
			if sopt.Skews, err = parseFloats(*serveSkews); err != nil {
				fatal(err)
			}
			if sopt.Rates, err = parseFloats(*serveRates); err != nil {
				fatal(err)
			}
			if _, err := runServe(sopt, os.Stdout); err != nil {
				fatal(err)
			}
		case "rebalance":
			ropt := rebalanceOptions{
				Cells:         *rebalCells,
				Policies:      parseStrings(*rebalPolicies),
				HotKeys:       *rebalHotKeys,
				HotWriteFrac:  *rebalHotWrite,
				Rate:          *rebalRate,
				Ops:           *rebalOps,
				Keyspace:      *rebalKeys,
				MaxBatch:      *rebalBatch,
				WindowBatches: *rebalWindow,
				Seed:          *rebalSeed,
				Parallelism:   *parallelism,
				Out:           *rebalOut,
			}
			var err error
			if ropt.Fleets, err = parseInts(*rebalDPUs); err != nil {
				fatal(err)
			}
			if ropt.Skews, err = parseFloats(*rebalSkews); err != nil {
				fatal(err)
			}
			if ropt.ReadPcts, err = parseInts(*rebalReads); err != nil {
				fatal(err)
			}
			if _, err := runRebalance(ropt, os.Stdout); err != nil {
				fatal(err)
			}
		case "txnserve":
			topt := txnServeOptions{
				Rate:            *txnRate,
				ReadPct:         *txnReads,
				Txns:            *txnCount,
				Keyspace:        *txnKeys,
				MaxBatch:        *txnBatch,
				MaxDelaySeconds: *txnDelayUS * 1e-6,
				Seed:            *txnSeed,
				Parallelism:     *parallelism,
				Out:             *txnOut,
			}
			var err error
			if topt.Fleets, err = parseInts(*txnDPUs); err != nil {
				fatal(err)
			}
			if topt.Algs, err = parseAlgorithms(*txnAlgs); err != nil {
				fatal(err)
			}
			if topt.TxnSizes, err = parseInts(*txnSizes); err != nil {
				fatal(err)
			}
			if topt.CrossFracs, err = parseFloats(*txnCross); err != nil {
				fatal(err)
			}
			if topt.Skews, err = parseFloats(*txnSkews); err != nil {
				fatal(err)
			}
			topt.Scheds = parseStrings(*txnScheds)
			if _, err := runTxnServe(topt, os.Stdout); err != nil {
				fatal(err)
			}
		case "scale":
			sopt := scaleOptions{
				Sample:            *scaleSample,
				KeysPerDPU:        *scaleKeysPD,
				OpsPerDPU:         *scaleOpsPD,
				RatePerDPU:        *scaleRatePD,
				MaxBatch:          *scaleBatch,
				WallBudgetSeconds: *scaleBudget,
				StrictBudget:      *scaleStrict,
				Seed:              *scaleSeed,
				Parallelism:       *parallelism,
				Out:               *scaleOut,
			}
			var err error
			if sopt.Fleets, err = parseInts(*scaleDPUs); err != nil {
				fatal(err)
			}
			if sopt.Skews, err = parseFloats(*scaleSkews); err != nil {
				fatal(err)
			}
			if _, err := runScale(sopt, os.Stdout); err != nil {
				fatal(err)
			}
		case "apps":
			aopt := appsOptions{
				Txns:            *appsTxns,
				Rate:            *appsRate,
				Keyspace:        *appsKeys,
				ReadPct:         *appsReads,
				MaxBatch:        *appsBatch,
				MaxDelaySeconds: *appsDelayUS * 1e-6,
				MinCells:        *appsMinCells,
				Seed:            *appsSeed,
				Parallelism:     *parallelism,
				Out:             *appsOut,
			}
			if _, err := runApps(aopt, os.Stdout); err != nil {
				fatal(err)
			}
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

func parseStrings(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float list %q: %w", s, err)
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
