package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	"pimstm/internal/core"
	"pimstm/internal/host"
)

// metric is one reported figure with its unit.
type metric struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the simulator sees, reported from
// untraced runs. Each is defined and non-zero on every workload (see
// README.md for the per-workload definitions).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_txns_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
	{"modeled_txns_per_s", "1/s"},
	{"modeled_p50_s", "s"},
	{"modeled_p99_s", "s"},
	{"commit_ratio", "ratio"},
}

// outcomes are printed beside the end-to-end metrics, on the workloads
// that define them. They are zero by construction on some workloads (no
// guards on kv), so the gated metrics carry them as commit_ratio; the
// failed ratio is the result line's failed/attempted.
var outcomes = []metric{
	{"stm_abort_ratio", "ratio"},
	{"txn_abort_ratio", "ratio"},
}

// perLayer are the traced run's metrics, one layer at a time. Modeled
// seconds (host.partmap.{gather,apply,writeback}_s, host.fleet.*_s,
// host.submitter.drain_s) are on the modeled clock; every other _s is
// real time.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		{"dpu.new_s", "s"}, {"dpu.run_s", "s"}, {"dpu.runs", "count"},
		{"dpu.cycles", "cycles"}, {"dpu.dma_transfers", "count"},
		{"dpu.host_ns_per_cycle", "ns/cycle"},
	}
	for _, tier := range tiers {
		p := "core." + tierName(tier) + "."
		for _, n := range []string{"commits", "aborts", "reads", "writes"} {
			ms = append(ms, metric{p + n, "count"})
		}
		ms = append(ms, metric{p + "metadata_bytes", "B"})
		for i := range len(core.Stats{}.AbortsBy) {
			ms = append(ms, metric{p + "aborts." + core.AbortReason(i).String(), "count"})
		}
		for _, ph := range phaseNames {
			ms = append(ms, metric{p + "phase." + ph + "_cycles", "cycles"})
		}
	}
	ms = append(ms,
		metric{"workloads.setup_s", "s"}, metric{"workloads.verify_s", "s"},
		metric{"host.partmap.new_s", "s"}, metric{"host.partmap.preload_s", "s"},
		metric{"host.partmap.classify_s", "s"}, metric{"host.partmap.route_s", "s"},
		metric{"host.partmap.shadow_s", "s"}, metric{"host.partmap.compile_s", "s"},
		metric{"host.partmap.coordinated_txns", "count"}, metric{"host.partmap.guard_aborts", "count"},
		metric{"host.partmap.split_reconciles", "count"},
		metric{"host.partmap.gather_s", "s"}, metric{"host.partmap.apply_s", "s"},
		metric{"host.partmap.writeback_s", "s"}, metric{"host.partmap.simulated_dpus", "count"},
		metric{"host.fleet.rounds", "count"}, metric{"host.fleet.launch_s", "s"},
		metric{"host.fleet.transfer_s", "s"}, metric{"host.fleet.quiescent_s", "s"},
		metric{"host.fleet.lockstep_s", "s"},
		metric{"host.submitter.submit_s", "s"}, metric{"host.submitter.close_s", "s"},
		metric{"host.submitter.batches", "count"}, metric{"host.submitter.size_flushes", "count"},
		metric{"host.submitter.delay_flushes", "count"}, metric{"host.submitter.drain_flushes", "count"},
		metric{"host.submitter.mean_batch_ops", "ops"}, metric{"host.submitter.max_batch_ops", "ops"},
		metric{"host.submitter.confined_batches", "count"}, metric{"host.submitter.coordinated_batches", "count"},
		metric{"host.submitter.drain_s", "s"},
		metric{"host.rebalancer.windows_evaluated", "count"}, metric{"host.rebalancer.windows_acted", "count"},
		metric{"host.rebalancer.keys_split", "count"}, metric{"host.rebalancer.keys_unsplit", "count"},
		metric{"host.rebalancer.keys_migrated", "count"}, metric{"host.rebalancer.keys_replicated", "count"},
		metric{"workload.check_s", "s"},
		metric{"go.alloc_mib", "MiB"}, metric{"go.gc_cycles", "count"}, metric{"go.goroutines_end", "count"},
	)
	for _, l := range selfLayers {
		ms = append(ms, metric{"self_s." + l, "s"})
	}
	return append(ms, metric{"trace.overhead_ratio", "ratio"}, metric{"trace.spans", "count"})
}

// rep is the outcome of one repetition of a workload in a fresh
// process: its counts, every metric it measured, its modeled-output
// fingerprint and, when traced, its spans.
type rep struct {
	Fingerprint string             `json:"fingerprint"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Errors      []string           `json:"errors,omitempty"`
	Samples     int                `json:"samples"`
	Metrics     map[string]float64 `json:"metrics"`
	Spans       []span             `json:"spans,omitempty"`
}

func newRep() *rep { return &rep{Metrics: make(map[string]float64)} }

func (r *rep) set(name string, v float64) { r.Metrics[name] = v }
func (r *rep) add(name string, v float64) { r.Metrics[name] += v }

// setLatencies reports p50/p99 of modeled latencies.
func (r *rep) setLatencies(xs []float64) {
	sort.Float64s(xs)
	r.set("modeled_p50_s", nearestRank(xs, 0.50))
	r.set("modeled_p99_s", nearestRank(xs, 0.99))
	r.Samples = len(xs)
}

// nearestRank is the q-quantile of sorted xs by the nearest-rank
// method, host.Serve's percentile definition.
func nearestRank(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(rank, len(sorted)-1))]
}

// fingerprint hashes modeled outputs, never real time.
type fingerprint struct {
	h   hash.Hash
	buf []byte
}

func newFingerprint() *fingerprint { return &fingerprint{h: sha256.New()} }

// add hashes values through their %+v form, which prints every field
// of a struct and float64s exactly.
func (f *fingerprint) add(vs ...any) {
	for _, v := range vs {
		fmt.Fprintf(f.h, "%+v|", v)
	}
}

// txn hashes one transaction's outcome in binary: the kv trace has a
// million of them.
func (f *fingerprint) txn(tr host.TxnResult) {
	b := f.buf[:0]
	flags := uint64(0)
	if tr.Committed {
		flags |= 1
	}
	if tr.Err != nil {
		flags |= 2
	}
	b = binary.LittleEndian.AppendUint64(b, flags)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(tr.LatencySeconds))
	for _, o := range tr.Results {
		ok := uint64(0)
		if o.OK {
			ok = 1
		}
		b = binary.LittleEndian.AppendUint64(b, o.Value)
		b = binary.LittleEndian.AppendUint64(b, ok)
	}
	f.buf = b
	f.h.Write(b)
}

func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil)[:12]) }

// quartiles returns the first quartile, median and third quartile of
// xs, interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
