package host

import (
	"fmt"
	"math"
	"sort"
)

// This file is the open-loop serving harness on top of the Submitter:
// a deterministic traffic generator (Zipf key popularity × read mix ×
// Poisson arrivals) and a driver that streams one generated trace
// through a fresh PartitionedMap, reporting modeled throughput and
// latency percentiles. Everything is a pure function of the config —
// same seed, same bytes out — so the serve bench artifact is
// reproducible run to run.

// Rand64 is the repo's deterministic xorshift64* PRNG — the single
// home of the recurrence every deterministic trace generator uses
// (serving traffic, the multidpu sweep, the CPU baselines).
type Rand64 uint64

// Next returns the next 64-bit variate.
func (r *Rand64) Next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = Rand64(x)
	return x * 0x2545F4914F6CDD1D
}

// Float returns a uniform float64 in [0, 1).
func (r *Rand64) Float() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// Zipf samples ranks in [0, n) with probability ∝ (rank+1)^-s via the
// precomputed CDF, so any skew exponent s ≥ 0 works (s = 0 is uniform)
// and sampling is deterministic given the caller's uniform variates.
type Zipf struct {
	cum []float64
}

// NewZipf builds the sampler for n ranks at skew s.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("host: zipf needs at least one rank")
	}
	if s < 0 {
		return nil, fmt.Errorf("host: negative zipf exponent %g", s)
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -s)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return &Zipf{cum: cum}, nil
}

// Rank maps a uniform variate u in [0, 1) to a rank (0 = hottest).
func (z *Zipf) Rank(u float64) int {
	return sort.SearchFloat64s(z.cum, u)
}

// TrafficConfig parameterizes one deterministic open-loop trace.
type TrafficConfig struct {
	// Ops is the trace length in transactions (required, ≥ 1); each
	// transaction carries TxnSize operations, so with the default
	// TxnSize of 1 this is the historical op count.
	Ops int
	// Rate is the mean arrival rate in transactions per modeled second
	// (required, > 0); inter-arrivals are exponential (Poisson stream).
	Rate float64
	// ReadPct of ops are Gets; the rest are Puts of a random value.
	ReadPct int
	// Keyspace is the number of distinct keys (required, ≥ 1); key k
	// has popularity rank k.
	Keyspace int
	// ZipfS is the key-popularity skew exponent (0 = uniform).
	ZipfS float64
	// Seed makes the trace reproducible.
	Seed uint64
	// TxnSize is the exact number of operations per transaction
	// (default 1 — the historical single-op stream, bit-identical to
	// the pre-Txn generator).
	TxnSize int
	// CrossDPU is the fraction of multi-op transactions whose keys
	// deliberately span at least two DPUs; the rest are confined to the
	// first key's owner DPU. Only meaningful when TxnSize ≥ 2; needs
	// DPUs ≥ 2.
	CrossDPU float64
	// DPUs is the fleet size the trace will be served on (static-hash
	// routing), required when TxnSize ≥ 2. Serve fills it from the
	// store config automatically.
	DPUs int
	// HotKeys and HotWriteFrac overlay a write-heavy hot-counter stream
	// on the single-op trace: each arrival is, with probability
	// HotWriteFrac, an OpAdd(+1) on one of the first HotKeys keys
	// (uniformly) instead of the usual Zipf-sampled Get/Put — the
	// commutative contention that drives the Rebalancer's split-key
	// trigger, without relying on Zipf tails. HotWriteFrac 0 (the
	// default) leaves the trace bit-identical to the historical
	// generator. Only meaningful on single-op traces (TxnSize ≤ 1), and
	// HotKeys must fit inside Keyspace so the serve preload covers the
	// counters (a guarded OpAdd aborts on a missing key).
	HotKeys      int
	HotWriteFrac float64
}

// TimedTxn is one generated transaction with its modeled arrival time.
type TimedTxn struct {
	Txn Txn
	// Arrival is modeled seconds from the start of the trace;
	// non-decreasing along the trace.
	Arrival float64
}

// Validate checks every TrafficConfig bound up front with a
// descriptive error, so a misconfigured sweep fails at the knob that
// is wrong instead of deep inside the shaper (or, worse, silently: a
// CrossDPU fraction on a single-op trace used to be ignored, and a
// positive fraction on a 1-DPU fleet surfaced only as a key-placement
// error). A zero TxnSize is the documented single-op default and
// passes.
func (cfg *TrafficConfig) Validate() error {
	if cfg.Ops < 1 {
		return fmt.Errorf("host: traffic needs at least one transaction (Ops = %d)", cfg.Ops)
	}
	if cfg.Rate <= 0 {
		return fmt.Errorf("host: traffic needs a positive arrival rate (Rate = %g)", cfg.Rate)
	}
	if cfg.Keyspace < 1 {
		return fmt.Errorf("host: traffic needs at least one key (Keyspace = %d)", cfg.Keyspace)
	}
	if cfg.ZipfS < 0 {
		return fmt.Errorf("host: negative zipf exponent %g", cfg.ZipfS)
	}
	if cfg.TxnSize < 0 {
		return fmt.Errorf("host: bad transaction size %d (need ≥ 1; 0 defaults to 1)", cfg.TxnSize)
	}
	if cfg.CrossDPU < 0 || cfg.CrossDPU > 1 {
		return fmt.Errorf("host: cross-DPU fraction %g outside [0, 1]", cfg.CrossDPU)
	}
	if cfg.CrossDPU > 0 && cfg.TxnSize <= 1 {
		// TxnSize 0 defaults to the single-op stream, which would
		// silently drop the fraction.
		return fmt.Errorf("host: cross-DPU fraction %g needs multi-op transactions (TxnSize ≥ 2, have %d)", cfg.CrossDPU, cfg.TxnSize)
	}
	if cfg.TxnSize >= 2 {
		if cfg.DPUs < 1 {
			return fmt.Errorf("host: multi-op traffic needs the fleet size (DPUs)")
		}
		if cfg.CrossDPU > 0 && cfg.DPUs < 2 {
			return fmt.Errorf("host: cross-DPU fraction %g needs a fleet of at least two DPUs (have %d)", cfg.CrossDPU, cfg.DPUs)
		}
	}
	if cfg.HotKeys < 0 {
		return fmt.Errorf("host: negative hot-counter count %d", cfg.HotKeys)
	}
	if cfg.HotWriteFrac < 0 || cfg.HotWriteFrac > 1 {
		return fmt.Errorf("host: hot-counter write fraction %g outside [0, 1]", cfg.HotWriteFrac)
	}
	if cfg.HotWriteFrac > 0 {
		if cfg.HotKeys < 1 {
			return fmt.Errorf("host: hot-counter write fraction %g needs HotKeys ≥ 1", cfg.HotWriteFrac)
		}
		if cfg.TxnSize > 1 {
			return fmt.Errorf("host: hot-counter stream needs single-op traffic (TxnSize ≤ 1, have %d)", cfg.TxnSize)
		}
	}
	if cfg.HotKeys > cfg.Keyspace {
		return fmt.Errorf("host: %d hot counters exceed the keyspace %d (the preload must cover them)", cfg.HotKeys, cfg.Keyspace)
	}
	return nil
}

// GenerateTraffic builds the open-loop trace: arrivals keep their
// schedule regardless of how fast the store drains them — that is what
// makes queueing delay visible in the modeled latencies. With
// TxnSize ≥ 2 each arrival is a multi-key transaction: its first key is
// Zipf-sampled, and the rest are drawn either from the same DPU's
// keys (confined) or forced to span DPUs (a CrossDPU-fraction coin),
// so the cross-DPU coordination cost is a controlled knob.
func GenerateTraffic(cfg TrafficConfig) ([]TimedTxn, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.TxnSize == 0 {
		cfg.TxnSize = 1
	}
	z, err := NewZipf(cfg.Keyspace, cfg.ZipfS)
	if err != nil {
		return nil, err
	}
	rng := Rand64(cfg.Seed*0x9E3779B97F4A7C15 + 1)
	out := make([]TimedTxn, cfg.Ops)
	clock := 0.0

	if cfg.TxnSize == 1 {
		// The historical generator, consuming the PRNG identically so
		// every pre-Txn trace (and artifact) stays byte-identical: the
		// hot-counter branch is guarded on HotWriteFrac > 0 before any
		// variate is drawn, so an unset overlay changes nothing.
		for i := range out {
			clock += -math.Log(1-rng.Float()) / cfg.Rate
			if cfg.HotWriteFrac > 0 && rng.Float() < cfg.HotWriteFrac {
				op := Op{Kind: OpAdd, Key: rng.Next() % uint64(cfg.HotKeys), Value: 1}
				out[i] = TimedTxn{Txn: Txn{Ops: []Op{op}}, Arrival: clock}
				continue
			}
			key := uint64(z.Rank(rng.Float()))
			op := Op{Kind: OpPut, Key: key, Value: rng.Next()}
			if int(rng.Next()%100) < cfg.ReadPct {
				op = Op{Kind: OpGet, Key: key}
			}
			out[i] = TimedTxn{Txn: Txn{Ops: []Op{op}}, Arrival: clock}
		}
		return out, nil
	}

	shape, err := newTxnShaper(cfg, z)
	if err != nil {
		return nil, err
	}
	for i := range out {
		clock += -math.Log(1-rng.Float()) / cfg.Rate
		spanning := rng.Float() < cfg.CrossDPU
		ops := make([]Op, 0, cfg.TxnSize)
		mkOp := func(key uint64) Op {
			op := Op{Kind: OpPut, Key: key, Value: rng.Next()}
			if int(rng.Next()%100) < cfg.ReadPct {
				op = Op{Kind: OpGet, Key: key}
			}
			return op
		}
		first := uint64(z.Rank(rng.Float()))
		ops = append(ops, mkOp(first))
		home := hashOwner(first, cfg.DPUs)
		owners := map[int]bool{home: true}
		taken := map[uint64]bool{first: true}
		for j := 1; j < cfg.TxnSize; j++ {
			var key uint64
			switch {
			case !spanning:
				key = shape.sampleOn(home, taken, &rng)
			case j == cfg.TxnSize-1 && len(owners) == 1:
				// Last chance to honor the spanning coin: draw the key
				// from a different DPU's keys.
				key = shape.sampleOff(home, taken, &rng)
			default:
				key = shape.sampleAny(taken, &rng)
			}
			taken[key] = true
			owners[hashOwner(key, cfg.DPUs)] = true
			ops = append(ops, mkOp(key))
		}
		out[i] = TimedTxn{Txn: Txn{Ops: ops}, Arrival: clock}
	}
	return out, nil
}

// txnShaper samples keys conditioned on their owner DPU: per-DPU key
// lists with renormalized Zipf CDFs, so confined and spanning
// transactions stay faithful to the configured popularity skew.
type txnShaper struct {
	z     *Zipf
	keys  map[int][]uint64  // owner → its keys, popularity order
	cum   map[int][]float64 // owner → renormalized Zipf CDF
	dpus  []int             // DPUs owning at least one key, ascending
	byDPU map[int]int       // owner → index into dpus
}

func newTxnShaper(cfg TrafficConfig, z *Zipf) (*txnShaper, error) {
	s := &txnShaper{
		z:     z,
		keys:  make(map[int][]uint64),
		cum:   make(map[int][]float64),
		byDPU: make(map[int]int),
	}
	weights := make(map[int][]float64)
	for k := 0; k < cfg.Keyspace; k++ {
		o := hashOwner(uint64(k), cfg.DPUs)
		s.keys[o] = append(s.keys[o], uint64(k))
		weights[o] = append(weights[o], math.Pow(float64(k+1), -cfg.ZipfS))
	}
	for o, ws := range weights {
		total := 0.0
		cum := make([]float64, len(ws))
		for i, w := range ws {
			total += w
			cum[i] = total
		}
		for i := range cum {
			cum[i] /= total
		}
		s.cum[o] = cum
	}
	for o := 0; o < cfg.DPUs; o++ {
		if len(s.keys[o]) > 0 {
			s.byDPU[o] = len(s.dpus)
			s.dpus = append(s.dpus, o)
		}
	}
	if cfg.CrossDPU > 0 && len(s.dpus) < 2 {
		return nil, fmt.Errorf("host: cross-DPU transactions need keys on at least two DPUs (have %d)", len(s.dpus))
	}
	return s, nil
}

// sampleOn draws a key owned by DPU o, avoiding taken keys best-effort
// (up to 8 redraws; a tiny partition may repeat keys, which a
// transaction tolerates).
func (s *txnShaper) sampleOn(o int, taken map[uint64]bool, rng *Rand64) uint64 {
	cum, keys := s.cum[o], s.keys[o]
	var key uint64
	for attempt := 0; attempt < 8; attempt++ {
		key = keys[sort.SearchFloat64s(cum, rng.Float())]
		if !taken[key] {
			return key
		}
	}
	return key
}

// sampleOff draws a key owned by any DPU other than o.
func (s *txnShaper) sampleOff(o int, taken map[uint64]bool, rng *Rand64) uint64 {
	others := make([]int, 0, len(s.dpus))
	for _, d := range s.dpus {
		if d != o {
			others = append(others, d)
		}
	}
	d := others[int(rng.Next()%uint64(len(others)))]
	return s.sampleOn(d, taken, rng)
}

// sampleAny draws from the global Zipf, avoiding taken keys
// best-effort.
func (s *txnShaper) sampleAny(taken map[uint64]bool, rng *Rand64) uint64 {
	var key uint64
	for attempt := 0; attempt < 8; attempt++ {
		key = uint64(s.z.Rank(rng.Float()))
		if !taken[key] {
			return key
		}
	}
	return key
}

// Quantile returns the q-quantile (0 < q ≤ 1) of xs by the
// nearest-rank method. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile over an already-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// ServeConfig is one serving scenario: a store, a batcher, a traffic
// trace, optionally an adaptive placement control plane.
type ServeConfig struct {
	// Map builds the PartitionedMap. Zero Buckets/Capacity default to
	// 256 buckets and 4 × the traffic keyspace.
	Map PartitionedMapConfig
	// Submit tunes the adaptive batcher.
	Submit SubmitterConfig
	// Traffic is the open-loop trace to serve.
	Traffic TrafficConfig
	// Rebalance, when non-nil, attaches a Rebalancer after the load
	// phase (requires Map.Placement to be a *Directory); the submitter
	// drives it between flushed batches.
	Rebalance *RebalancerConfig
	// Scheduler, when non-nil, builds the run's batch-formation policy
	// (nil = the default FIFOScheduler over Submit's
	// MaxBatch/MaxDelaySeconds). A factory rather than an instance:
	// schedulers are stateful and every Serve call needs a fresh one.
	Scheduler func() Scheduler
	// Trace, when non-nil, is served verbatim instead of a trace
	// generated from Traffic — the hook application workloads use to
	// inject their own transaction streams. Arrivals must be
	// non-decreasing. Traffic.Keyspace still sizes the store defaults
	// and the identity preload.
	Trace []TimedTxn
	// Preload, when non-nil, replaces the identity preload (Put(k, k)
	// for every key below Traffic.Keyspace) with an explicit op list
	// applied before the clock baseline — how workloads install their
	// initial state (stock levels, wallets, …).
	Preload []Op
	// KeepResults retains every transaction's TxnResult (trace order)
	// and the served store on the result — the hooks invariant checkers
	// need. Off by default; serving benchmarks don't pay the memory.
	KeepResults bool
}

// ServeResult is the modeled outcome of one serving run.
type ServeResult struct {
	// Ops served across Txns transactions, in Batches applied batches.
	Ops, Txns, Batches int
	// MakespanSeconds spans load completion (the traffic clock's zero)
	// to the last batch completion on the modeled clock.
	MakespanSeconds float64
	// OpsPerSecond is Ops / MakespanSeconds.
	OpsPerSecond float64
	// P50/P95/P99 are modeled per-transaction commit-latency percentiles
	// in seconds (queue wait + batch wall clock).
	P50, P95, P99 float64
	// MeanBatchOps is the average applied batch size in ops.
	MeanBatchOps float64
	// Stats are the submitter's flush counters.
	Stats SubmitterStats
	// Rebalance are the control-plane counters (zero without a
	// rebalancer).
	Rebalance RebalancerStats
	// Errors counts transactions that resolved with a non-nil Err;
	// Aborted counts clean guard aborts (Committed false, no error).
	Errors, Aborted int
	// CoordinatedTxns counts the transactions that needed CPU
	// coordination (cross-DPU conflict groups).
	CoordinatedTxns int
	// SimulatedDPUs is how many of the fleet's DPUs were actually
	// simulated: equal to Map.DPUs in exact mode, the clamped sample
	// size in sampled-fleet mode (Map.Sample > 0).
	SimulatedDPUs int
	// SplitReconciles counts the split-key epoch reconciliations the
	// run paid (always zero unless the rebalancer's split policy is
	// armed and triggered).
	SplitReconciles int
	// HostSeconds is the REAL machine wall-clock the simulator spent in
	// the serving phase's host-side batch work (classify + route +
	// shadow + compile, summed from Stats.Host*Seconds) — simulator
	// speed, not modeled time. It varies run to run and across machines;
	// byte-identity comparisons must go through ZeroHostClock first.
	HostSeconds float64
	// HostWorkers is the store's effective host-side worker count (the
	// resolved HostParallelism) — recorded so artifacts are
	// interpretable across machines.
	HostWorkers int
	// Results are the per-transaction outcomes in trace order; nil
	// unless ServeConfig.KeepResults is set.
	Results []TxnResult
	// Store is the served map after the run, for post-run state checks
	// (invariants); nil unless ServeConfig.KeepResults is set.
	Store *PartitionedMap
}

// ZeroHostClock zeroes every real-time (machine wall-clock) field of
// the result — HostSeconds, HostWorkers and the Stats.Host*Seconds
// accumulators — leaving only modeled fields. Identical configs give
// identical results only modulo these fields (real time differs run to
// run), so byte-identity tests compare ZeroHostClock'd copies.
func (r *ServeResult) ZeroHostClock() {
	r.HostSeconds = 0
	r.HostWorkers = 0
	r.Stats.ZeroHostClock()
}

// Serve preloads the keyspace, streams the generated trace through a
// Submitter in arrival order, and reports modeled throughput and
// latency. Deterministic: identical configs give identical results
// modulo the real-time host-clock fields (see ZeroHostClock).
func Serve(cfg ServeConfig) (ServeResult, error) {
	if cfg.Traffic.TxnSize > 1 && cfg.Traffic.DPUs == 0 {
		cfg.Traffic.DPUs = cfg.Map.DPUs
	}
	trace := cfg.Trace
	if trace == nil {
		var err error
		if trace, err = GenerateTraffic(cfg.Traffic); err != nil {
			return ServeResult{}, err
		}
	}
	if cfg.Map.Buckets == 0 {
		cfg.Map.Buckets = 256
	}
	if cfg.Map.Capacity == 0 {
		cfg.Map.Capacity = 4 * cfg.Traffic.Keyspace
		if n := 4 * len(cfg.Preload); n > cfg.Map.Capacity {
			cfg.Map.Capacity = n
		}
	}
	pm, err := NewPartitionedMap(cfg.Map)
	if err != nil {
		return ServeResult{}, err
	}

	// Load phase: populate every key so Gets hit, then baseline the
	// clock — the serving numbers exclude the load. An explicit Preload
	// replaces the identity fill.
	load := cfg.Preload
	if load == nil {
		load = make([]Op, cfg.Traffic.Keyspace)
		for k := range load {
			load[k] = Op{Kind: OpPut, Key: uint64(k), Value: uint64(k)}
		}
	}
	if _, err := pm.ApplyBatch(load); err != nil {
		return ServeResult{}, err
	}
	base := pm.Stats().WallSeconds
	coordBase := pm.TxnsCoordinated

	// The control plane attaches after the load so the bulk preload
	// does not count as observed traffic.
	var reb *Rebalancer
	if cfg.Rebalance != nil {
		if reb, err = NewRebalancer(pm, *cfg.Rebalance); err != nil {
			return ServeResult{}, err
		}
	}

	scfg := cfg.Submit
	if cfg.Scheduler != nil {
		scfg.Scheduler = cfg.Scheduler()
	}
	s := NewSubmitter(pm, scfg)
	futs := make([]*Future, len(trace))
	for i, t := range trace {
		if futs[i], err = s.Submit(t.Txn, t.Arrival); err != nil {
			return ServeResult{}, err
		}
	}
	if err := s.Close(); err != nil {
		return ServeResult{}, err
	}

	res := ServeResult{Txns: len(trace), Stats: s.Stats(), SimulatedDPUs: pm.SimulatedDPUs()}
	res.SplitReconciles = pm.SplitReconciles
	res.HostWorkers = pm.HostWorkers()
	res.HostSeconds = res.Stats.HostClassifySeconds + res.Stats.HostRouteSeconds +
		res.Stats.HostShadowSeconds + res.Stats.HostCompileSeconds
	res.Ops = res.Stats.Submitted
	res.Batches = res.Stats.Batches
	res.CoordinatedTxns = pm.TxnsCoordinated - coordBase
	if reb != nil {
		res.Rebalance = reb.Stats()
	}
	if cfg.KeepResults {
		res.Results = make([]TxnResult, 0, len(futs))
		res.Store = pm
	}
	lats := make([]float64, len(futs))
	for i, f := range futs {
		r := f.Wait()
		if r.Err != nil {
			res.Errors++
		} else if !r.Committed {
			res.Aborted++
		}
		lats[i] = r.LatencySeconds
		if cfg.KeepResults {
			res.Results = append(res.Results, r)
		}
	}
	sort.Float64s(lats)
	res.P50 = quantileSorted(lats, 0.50)
	res.P95 = quantileSorted(lats, 0.95)
	res.P99 = quantileSorted(lats, 0.99)
	res.MakespanSeconds = pm.Stats().WallSeconds - base
	if res.MakespanSeconds > 0 {
		res.OpsPerSecond = float64(res.Ops) / res.MakespanSeconds
	}
	if res.Batches > 0 {
		res.MeanBatchOps = float64(res.Ops) / float64(res.Batches)
	}
	return res, nil
}
