// Command pimbench is the repository benchmark. It times the public
// calls of the simulator's layers (internal/dpu, core, workloads, host
// and workload) on three workloads, checks their outputs, and prints
// every metric by name with its unit; the last line of standard output
// is one JSON object with the keys correct, attempted, failed and
// metrics.
//
//	pimbench --workload stm-grid --seed 1 --seconds 30 --trace 0
//
// Each repetition runs in a fresh child process, so per-process figures
// (peak RSS, goroutines left at the end) describe one repetition and
// nothing builds up across repetitions or workloads. The parent repeats
// the workload until --seconds have passed and reports medians. With
// --trace 1 it alternates untraced and traced repetitions, reports the
// per-layer metrics of the traced ones, the tracing overhead, and writes
// their spans as Chrome trace-event JSON. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"pimstm/internal/harness"
	"pimstm/internal/host"
)

const (
	// defaultSeed drives the inputs unless --seed says otherwise;
	// heldOutSeed is kept out of tuning and checked by the tests.
	defaultSeed = 1
	heldOutSeed = 7919

	// Cost-model anchors: the simulator's modeled 64-bit local MRAM read
	// (ns) and inter-DPU read (s). A change that moves either changes
	// the modeled clock and must not read as a speed-up.
	anchorLocalReadNs   = 262.857
	anchorInterDPURead  = 331e-6
	paperLocalReadNs    = 231
	paperInterDPURead   = 331e-6
	anchorToleranceFrac = 1e-5

	// maxProcs caps GOMAXPROCS at the 2-CPU machine the operating
	// points and bounds were measured on.
	maxProcs = 2
)

var workloadNames = []string{"stm-grid", "kv-fleet2500", "neworder-coord"}

// runWorkload runs one full-size repetition of the named workload.
func runWorkload(name string, seed uint64, rec *recorder) (*rep, error) {
	switch name {
	case "stm-grid":
		return runGrid(benchGrid(seed), rec)
	case "kv-fleet2500":
		return runServing(benchKV(seed, kvTxns), rec)
	case "neworder-coord":
		sc, err := benchNewOrder(seed, noTxns)
		if err != nil {
			return nil, err
		}
		return runServing(sc, rec)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", defaultSeed, "input seed")
		seconds = flag.Float64("seconds", 10, "measure for this many real seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		child   = flag.Bool("child", false, "run one repetition and print it as JSON (internal)")
		traced  = flag.Bool("traced", false, "record spans in a -child repetition (internal)")
	)
	flag.Parse()
	if *child {
		os.Exit(runChild(*name, *seed, *traced))
	}
	if !slices.Contains(workloadNames, *name) {
		fmt.Fprintf(os.Stderr, "pimbench: unknown workload %q (valid: %s)\n", *name, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "pimbench: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	os.Exit(runParent(*name, *seed, *seconds, *trace == 1))
}

// checkAnchors verifies the cost-model anchors still read their
// recorded values.
func checkAnchors() error {
	local := harness.LocalMRAMReadLatency()
	if math.Abs(local-anchorLocalReadNs) > anchorToleranceFrac*anchorLocalReadNs {
		return fmt.Errorf("modeled local MRAM read moved: %.3f ns, recorded %.3f ns", local, anchorLocalReadNs)
	}
	if inter := host.InterDPURead64Seconds(); inter != anchorInterDPURead {
		return fmt.Errorf("modeled inter-DPU read moved: %g s, recorded %g s", inter, anchorInterDPURead)
	}
	return nil
}

// runChild runs one repetition and prints it as JSON on stdout.
func runChild(name string, seed uint64, traced bool) int {
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	rec := newRecorder(traced)
	r, err := runWorkload(name, seed, rec)
	if err != nil {
		r = newRep()
		r.Attempted, r.Failed = 1, 1
		r.Errors = []string{err.Error()}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("go.alloc_mib", float64(ms.TotalAlloc)/(1<<20))
	r.set("go.gc_cycles", float64(ms.NumGC))
	// The workload's store and DPUs are unreachable now; what a GC
	// leaves running is leaked.
	runtime.GC()
	r.set("go.goroutines_end", float64(runtime.NumGoroutine()))
	if err := checkAnchors(); err != nil {
		r.Failed = r.Attempted
		r.Errors = append(r.Errors, err.Error())
	}
	rss, err := peakRSSMiB()
	if err != nil {
		r.Failed = r.Attempted
		r.Errors = append(r.Errors, err.Error())
	}
	r.set("peak_rss_mib", rss)
	if traced {
		r.Spans = rec.spans
		for l, v := range selfTimes(rec.spans) {
			r.set("self_s."+l, v)
		}
		r.set("trace.spans", float64(len(rec.spans)))
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "pimbench:", err)
		return 1
	}
	return 0
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// spawn runs one repetition in a fresh process.
func spawn(name string, seed uint64, traced bool) (*rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-traced="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("repetition process: %w", err)
	}
	r := newRep()
	if err := json.NewDecoder(bytes.NewReader(out)).Decode(r); err != nil {
		return nil, fmt.Errorf("repetition output: %w", err)
	}
	return r, nil
}

// runParent repeats the workload in fresh processes for the given real
// seconds and prints the report. With trace, even repetitions run
// untraced and odd ones traced, so both see the same machine state.
func runParent(name string, seed uint64, seconds float64, trace bool) int {
	start := time.Now()
	minReps := 1
	if trace {
		minReps = 2
	}
	var plain, traced []*rep
	for i := 0; ; i++ {
		on := trace && i%2 == 1
		r, err := spawn(name, seed, on)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: %s seed %d: %v\n", name, seed, err)
			return 1
		}
		if on {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if i+1 >= minReps && time.Since(start).Seconds() >= seconds {
			break
		}
	}

	all := append(append([]*rep(nil), plain...), traced...)
	attempted, failed := 0, 0
	var errs []string
	for _, r := range all {
		attempted += r.Attempted
		failed += r.Failed
		errs = append(errs, r.Errors...)
		if r.Fingerprint != all[0].Fingerprint {
			errs = append(errs, fmt.Sprintf("modeled fingerprint differs between repetitions: %s vs %s",
				r.Fingerprint, all[0].Fingerprint))
		}
	}
	if len(errs) > 0 && failed == 0 {
		failed = attempted
	}

	fmt.Printf("pimbench %s seed=%d: %d untraced + %d traced repetitions in %.1f s, GOMAXPROCS %d\n",
		name, seed, len(plain), len(traced), time.Since(start).Seconds(), min(maxProcs, runtime.NumCPU()))
	fmt.Printf("  anchors: local MRAM read %.3f ns (paper %d ns, %+.1f%%), inter-DPU read %.0f µs (paper %.0f µs), ratio %.0fx (paper %.0fx)\n",
		anchorLocalReadNs, paperLocalReadNs, 100*(anchorLocalReadNs/paperLocalReadNs-1),
		anchorInterDPURead*1e6, paperInterDPURead*1e6,
		anchorInterDPURead*1e9/anchorLocalReadNs, paperInterDPURead*1e9/paperLocalReadNs)
	stat := func(reps []*rep, name string) (q1, med, q3 float64) {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r.Metrics[name]
		}
		return quartiles(vals)
	}
	// report prints each metric's median over reps with its quartiles
	// and returns them as the result line's metrics object.
	report := func(ms []metric, reps []*rep) map[string]any {
		obj := make(map[string]any, len(ms))
		for _, m := range ms {
			q1, med, q3 := stat(reps, m.Name)
			n := ""
			if strings.HasPrefix(m.Name, "modeled_p") {
				n = fmt.Sprintf(" n=%d", reps[0].Samples)
			}
			fmt.Printf("  %-36s %14.6g %-8s q1 %.6g q3 %.6g%s\n", m.Name, med, m.Unit, q1, q3, n)
			if math.IsNaN(med) || math.IsInf(med, 0) {
				errs = append(errs, m.Name+" is not finite")
				med = 0
			}
			obj[m.Name] = map[string]any{"value": med, "unit": m.Unit}
		}
		return obj
	}

	fmt.Printf("  end to end, median of %d untraced repetitions:\n", len(plain))
	metrics := report(endToEnd, plain)
	for _, m := range outcomes {
		if _, ok := plain[0].Metrics[m.Name]; ok {
			report([]metric{m}, plain)
		}
	}
	fmt.Printf("  %-36s %14.6g %-8s %d of %d transactions\n", "failed_ratio", float64(failed)/float64(attempted), "ratio", failed, attempted)
	fmt.Printf("  %-36s %s\n", "fingerprint", all[0].Fingerprint)

	if trace {
		_, tracedWall, _ := stat(traced, "wall_s")
		_, plainWall, _ := stat(plain, "wall_s")
		for _, r := range traced {
			r.set("trace.overhead_ratio", tracedWall/plainWall-1)
		}
		fmt.Printf("  per layer, median of %d traced repetitions:\n", len(traced))
		metrics = report(perLayer, traced)
		path := fmt.Sprintf(".bench_build/pimbench/trace-%s-seed%d.json", name, seed)
		ids := make([]string, len(traced))
		spans := make([][]span, len(traced))
		for i, r := range traced {
			ids[i] = fmt.Sprintf("%s/seed=%d/rep=%d", name, seed, 2*i+1)
			spans[i] = r.Spans
		}
		if err := writeChromeTrace(path, ids, spans); err != nil {
			errs = append(errs, "writing trace: "+err.Error())
		} else {
			fmt.Printf("  trace: %s\n", path)
		}
	}
	for _, e := range errs {
		fmt.Println("  FAIL:", e)
	}
	correct := len(errs) == 0 && failed == 0
	blob, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimbench:", err)
		return 1
	}
	fmt.Println(string(blob))
	if !correct {
		return 1
	}
	return 0
}
