package main

import (
	"fmt"
	"math"
	"strings"

	"pimstm/internal/core"
	"pimstm/internal/dpu"
	"pimstm/internal/harness"
)

// gridConfig is the stm-grid workload: the paper's single-DPU
// design-space study, one fresh DPU per (workload, algorithm, metadata
// tier) cell, cells run one after another.
type gridConfig struct {
	// Specs names harness workloads: high contention (ArrayBench B),
	// long read sets (Linked-List LC) and low contention (KMeans LC).
	Specs []string
	// Scale shrinks the per-tasklet operation counts (harness.Specs).
	Scale    float64
	Tasklets int
	MRAMSize int
	Seed     uint64
}

func benchGrid(seed uint64) gridConfig {
	return gridConfig{
		Specs: []string{"ArrayBench B", "Linked-List LC", "KMeans LC"},
		Scale: 0.5, Tasklets: 11, MRAMSize: 8 << 20, Seed: seed,
	}
}

var tiers = []dpu.Tier{dpu.MRAM, dpu.WRAM}

// stmConfig applies the paper's lock-table spill rule (appendix A), as
// the harness does for its sweeps.
func stmConfig(spec harness.WorkloadSpec, alg core.Algorithm, tier dpu.Tier) core.Config {
	cfg := core.Config{Algorithm: alg, MetaTier: tier, LockTableEntries: spec.LockTableEntries}
	if tier == dpu.WRAM && spec.SpillLockTable {
		m := dpu.MRAM
		cfg.LockTableTier = &m
	}
	return cfg
}

// runGrid runs every cell through the public calls workloads.Run makes
// (dpu.New, core.New, Setup, DPU.Run, Verify), timing each.
func runGrid(cfg gridConfig, rec *recorder) (*rep, error) {
	r := newRep()
	fp := newFingerprint()
	root := rec.begin("stm-grid", -1)
	var (
		setup, run, verify, dpuNew float64
		commits, aborts, cycles    uint64
		logTput                    float64
		cells                      int
		latencies                  []float64
		perTier                    = map[dpu.Tier]*core.Stats{dpu.MRAM: {}, dpu.WRAM: {}}
		metaBytes                  = map[dpu.Tier]int{}
	)
	for _, name := range cfg.Specs {
		spec, err := harness.SpecByName(name)
		if err != nil {
			return nil, err
		}
		for _, tier := range tiers {
			for _, alg := range core.Algorithms {
				cell := rec.begin("cell", root.idx)
				w := spec.New(cfg.Scale)
				m := rec.begin("dpu.new", cell.idx)
				// Each cell draws its own DPU seed: one shared seed
				// moves every algorithm of a workload together (the
				// Linked-List cells swing 2x between seeds), which no
				// number of cells would average out.
				d := dpu.New(dpu.Config{MRAMSize: cfg.MRAMSize, Seed: cfg.Seed*64 + uint64(cells)})
				dt := rec.end(m)
				dpuNew += dt
				setup += dt

				m = rec.begin("core.new", cell.idx)
				tm, err := core.New(d, stmConfig(spec, alg, tier))
				setup += rec.end(m)
				if err != nil {
					return nil, fmt.Errorf("%s %v/%v: %w", name, alg, tier, err)
				}
				m = rec.begin("workloads.setup", cell.idx)
				err = w.Setup(d)
				dt = rec.end(m)
				setup += dt
				r.add("workloads.setup_s", dt)
				if err != nil {
					return nil, fmt.Errorf("%s %v/%v setup: %w", name, alg, tier, err)
				}
				if mp, ok := w.(interface{ SetTasklets(int) }); ok {
					mp.SetTasklets(cfg.Tasklets)
				}

				txs := make([]*core.Tx, cfg.Tasklets)
				ends := make([]uint64, cfg.Tasklets)
				progs := make([]func(*dpu.Tasklet), cfg.Tasklets)
				for i := range progs {
					progs[i] = func(t *dpu.Tasklet) {
						tx := tm.NewTx(t)
						txs[t.ID] = tx
						w.Body(tx, t.ID, cfg.Tasklets)
						ends[t.ID] = t.Now()
					}
				}
				m = rec.begin("dpu.run", cell.idx)
				cyc, err := d.Run(progs)
				run += rec.end(m)
				if err != nil {
					return nil, fmt.Errorf("%s %v/%v run: %w", name, alg, tier, err)
				}
				m = rec.begin("workloads.verify", cell.idx)
				err = w.Verify(d)
				verify += rec.end(m)
				rec.end(cell)

				var st core.Stats
				for i, tx := range txs {
					ts := tx.Stats()
					st.Merge(ts)
					fp.add(ends[i], *ts)
					if ts.Commits > 0 {
						latencies = append(latencies, d.Seconds(ends[i])/float64(ts.Commits))
					}
				}
				if err != nil {
					// A cell that breaks its invariant fails every
					// transaction it committed.
					r.Failed += int(st.Commits)
					r.Errors = append(r.Errors, fmt.Sprintf("%s %v/%v verify: %v", name, alg, tier, err))
				}
				r.Attempted += int(st.Commits)
				mt, mb := tm.MetadataBytes()
				metaBytes[mt] += mb
				fp.add(name, alg, tier, cyc, d.DMATransfers(), d.DMABytes(), mt, mb, st)

				perTier[tier].Merge(&st)
				commits += st.Commits
				aborts += st.Aborts
				cycles += cyc
				cells++
				r.add("dpu.dma_transfers", float64(d.DMATransfers()))
				logTput += math.Log(float64(st.Commits) / d.Seconds(cyc))
			}
		}
	}
	wall := rec.end(root)

	r.set("setup_s", setup)
	r.set("wall_s", wall)
	r.set("sim_txns_per_s", float64(commits)/run)
	r.set("modeled_txns_per_s", math.Exp(logTput/float64(cells)))
	r.setLatencies(latencies)
	r.set("stm_abort_ratio", float64(aborts)/float64(commits+aborts))
	r.set("commit_ratio", float64(commits)/float64(commits+aborts))

	r.set("dpu.new_s", dpuNew)
	r.set("dpu.run_s", run)
	r.set("dpu.runs", float64(cells))
	r.set("dpu.cycles", float64(cycles))
	r.set("dpu.host_ns_per_cycle", run*1e9/float64(cycles))
	r.set("workloads.verify_s", verify)
	for _, tier := range tiers {
		st, p := perTier[tier], "core."+tierName(tier)+"."
		r.set(p+"commits", float64(st.Commits))
		r.set(p+"aborts", float64(st.Aborts))
		r.set(p+"reads", float64(st.Reads))
		r.set(p+"writes", float64(st.Writes))
		r.set(p+"metadata_bytes", float64(metaBytes[tier]))
		for i, n := range st.AbortsBy {
			r.set(p+"aborts."+core.AbortReason(i).String(), float64(n))
		}
		for i, n := range st.Phases {
			r.set(p+"phase."+phaseNames[i]+"_cycles", float64(n))
		}
	}
	r.Fingerprint = fp.sum()
	return r, nil
}

func tierName(t dpu.Tier) string { return strings.ToLower(t.String()) }

// phaseNames are metric-safe names for core's breakdown buckets, in
// core.Phase order.
var phaseNames = [core.NumPhases]string{"reading", "writing", "validate-exec", "other-exec", "validate-commit", "other-commit", "wasted"}
