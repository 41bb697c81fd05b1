// Package dpu implements a deterministic discrete-event simulator of a
// single UPMEM DPU (Data Processing Unit), the substrate on which the
// PIM-STM library runs.
//
// The simulated DPU reproduces the architectural properties the paper's
// evaluation depends on:
//
//   - Two memory tiers: WRAM (64 KB scratchpad, accessed in one pipeline
//     slot) and MRAM (64 MB DRAM bank, accessed through a DPU-wide FCFS
//     DMA engine with a fixed base latency plus a per-byte cost).
//   - Up to 24 hardware tasklets with an instruction pipeline whose
//     effective depth is 11: a tasklet issues at most one instruction per
//     max(11, T) cycles, so aggregate throughput scales linearly up to 11
//     tasklets and is flat beyond.
//   - A 256-bit atomic register with acquire/release semantics, the only
//     hardware synchronization primitive; addresses map to bits through a
//     hardware hash, so unrelated addresses may alias.
//
// Execution is cooperatively scheduled: exactly one tasklet runs at any
// real instant, and the scheduler always resumes the runnable tasklet
// with the smallest virtual time, so all shared-state accesses happen in
// global virtual-time order. Runs are exactly reproducible.
package dpu

import (
	"fmt"
	"math"
)

// Architectural constants of the UPMEM DPU generation evaluated in the
// paper (see paper §2.1).
const (
	// DefaultWRAMSize is the size of the fast scratchpad memory.
	DefaultWRAMSize = 64 << 10
	// DefaultMRAMSize is the size of the DRAM bank of one DPU.
	DefaultMRAMSize = 64 << 20
	// MaxTasklets is the number of hardware threads per DPU.
	MaxTasklets = 24
	// PipelineDepth is the effective pipeline depth: the tasklet count
	// beyond which no additional parallelism is obtained.
	PipelineDepth = 11
	// DefaultClockHz is the DPU clock frequency.
	DefaultClockHz = 350e6
	// AtomicBits is the width of the hardware atomic register.
	AtomicBits = 256
)

// Cost-model constants, calibrated to the latencies published for the
// UPMEM system. Three figures pin the model down:
//
//   - a 64-bit local MRAM read takes 231 ns ≈ 81 cycles at 350 MHz
//     (paper §3.1): dmaFixedLatency + dmaEngineBase + 8/2 = 81;
//   - large-transfer streaming bandwidth is ≈700 MB/s (2 bytes/cycle);
//   - aggregate 8-byte-granularity bandwidth across tasklets saturates
//     around 100 MB/s (PrIM-style measurements): one 8-byte transfer
//     occupies the engine for 28 cycles, so latency overlaps across
//     tasklets but the engine itself is a serial resource.
const (
	// dmaFixedLatency is the per-transfer pipeline/setup latency seen by
	// the issuing tasklet but overlapped with other tasklets' transfers.
	dmaFixedLatency = 53
	// dmaEngineBase is the serial engine occupancy per transfer.
	dmaEngineBase = 24
	// dmaBytesPerTwoCycles: the engine moves 2 bytes per cycle.
	dmaBytesPerTwoCycles = 2
)

// Addr is a byte address inside one DPU. The top bit selects the tier:
// 0 = MRAM, 1 = WRAM. The zero Addr (MRAM offset 0) is reserved by the
// allocator and never handed out, so it can serve as a nil pointer.
type Addr uint32

// wramBit marks WRAM addresses.
const wramBit Addr = 1 << 31

// NilAddr is the reserved null address.
const NilAddr Addr = 0

// IsWRAM reports whether the address points into the WRAM tier.
func (a Addr) IsWRAM() bool { return a&wramBit != 0 }

// Offset returns the byte offset of the address within its tier.
func (a Addr) Offset() uint32 { return uint32(a &^ wramBit) }

// String renders the address with its tier for diagnostics.
func (a Addr) String() string {
	if a.IsWRAM() {
		return fmt.Sprintf("wram:0x%x", a.Offset())
	}
	return fmt.Sprintf("mram:0x%x", a.Offset())
}

// WRAMAddr builds a WRAM address from a byte offset.
func WRAMAddr(off uint32) Addr { return Addr(off) | wramBit }

// MRAMAddr builds an MRAM address from a byte offset.
func MRAMAddr(off uint32) Addr { return Addr(off) }

// Tier identifies one of the two DPU memory tiers.
type Tier int

// The two memory tiers of a DPU.
const (
	MRAM Tier = iota
	WRAM
)

// String returns the tier name.
func (t Tier) String() string {
	if t == WRAM {
		return "WRAM"
	}
	return "MRAM"
}

// Config parameterizes a simulated DPU. The zero value selects the
// defaults of the UPMEM system evaluated in the paper.
type Config struct {
	// MRAMSize and WRAMSize are the tier capacities in bytes. Tests may
	// shrink MRAM to avoid allocating 64 MB per DPU.
	MRAMSize int
	WRAMSize int
	// ClockHz is the DPU clock used to convert cycles to seconds.
	ClockHz float64
	// Seed perturbs every tasklet PRNG; distinct seeds model the paper's
	// "10 runs" averaging.
	Seed uint64
}

func (c *Config) fill() {
	if c.MRAMSize == 0 {
		c.MRAMSize = DefaultMRAMSize
	}
	if c.WRAMSize == 0 {
		c.WRAMSize = DefaultWRAMSize
	}
	if c.ClockHz == 0 {
		c.ClockHz = DefaultClockHz
	}
}

// DPU is one simulated data processing unit: two memory tiers, a DMA
// engine, an atomic register and a cooperative tasklet scheduler.
// A DPU is not safe for concurrent use; distinct DPUs are independent
// and may be simulated in parallel.
type DPU struct {
	cfg  Config
	mram []byte
	wram []byte

	mramBrk uint32 // bump-allocator break, starts at 8 (0 is nil)
	wramBrk uint32

	tasklets []*Tasklet
	live     int // tasklets not yet finished

	// taskletPool holds reusable tasklet slots (state and channels), so
	// steady-state relaunches (the serving hot path relaunches kernels
	// every batch) reuse them. Each Run starts one goroutine per program
	// and every one of them has exited by the time Run returns.
	taskletPool []*Tasklet
	yieldedCh   chan *Tasklet

	dmaBusyUntil uint64
	dmaTransfers uint64 // total DMA transfers issued (stats)
	dmaBytes     uint64

	reg atomicRegister

	finished bool
	totalCyc uint64 // max tasklet time of the last Run
}

// New builds a DPU with the given configuration.
func New(cfg Config) *DPU {
	cfg.fill()
	return &DPU{
		cfg:     cfg,
		mram:    make([]byte, cfg.MRAMSize),
		wram:    make([]byte, cfg.WRAMSize),
		mramBrk: 8, // keep Addr 0 as nil
	}
}

// Reset clears allocators, memory contents and run state so the DPU can
// host a fresh program. Both tiers are cleared eagerly, in full.
func (d *DPU) Reset() {
	clear(d.mram)
	clear(d.wram)
	d.mramBrk = 8 // keep Addr 0 as nil
	d.wramBrk = 0
	d.ResetRun()
}

// ResetRun clears only the execution state — tasklets, DMA engine,
// atomic register, virtual clock — so the host can launch another
// program against the same memory image, as the CPU relaunching kernels
// between batches on real UPMEM hardware. Memory contents and
// allocations persist.
func (d *DPU) ResetRun() {
	d.dmaBusyUntil = 0
	d.dmaTransfers = 0
	d.dmaBytes = 0
	d.reg = atomicRegister{}
	d.tasklets = nil
	d.live = 0
	d.finished = false
	d.totalCyc = 0
}

// Config returns the configuration the DPU was built with.
func (d *DPU) Config() Config { return d.cfg }

// Seconds converts a cycle count to seconds of DPU time.
func (d *DPU) Seconds(cycles uint64) float64 {
	return float64(cycles) / d.cfg.ClockHz
}

// Cycles returns the virtual duration of the last Run in cycles: the
// largest tasklet completion time.
func (d *DPU) Cycles() uint64 { return d.totalCyc }

// Duration returns the virtual duration of the last Run in seconds.
func (d *DPU) Duration() float64 { return d.Seconds(d.totalCyc) }

// DMATransfers returns the number of MRAM DMA transfers of the last Run.
func (d *DPU) DMATransfers() uint64 { return d.dmaTransfers }

// DMABytes returns the total bytes moved by the MRAM DMA engine.
func (d *DPU) DMABytes() uint64 { return d.dmaBytes }

// issueInterval is the number of cycles between two instructions of the
// same tasklet: the revolver pipeline serves max(PipelineDepth, T) slots.
func (d *DPU) issueInterval() uint64 {
	t := d.live
	if t < PipelineDepth {
		return PipelineDepth
	}
	return uint64(t)
}

// Run launches one tasklet per program and simulates until every tasklet
// finishes. It returns the virtual duration of the run in cycles.
// Programs interact with the DPU exclusively through their *Tasklet.
// Run panics if a previous Run's state was not Reset, if there are no
// programs, or if more than MaxTasklets are requested; it returns an
// error if the simulation deadlocks (every live tasklet blocked).
func (d *DPU) Run(programs []func(t *Tasklet)) (uint64, error) {
	if len(programs) == 0 {
		return 0, fmt.Errorf("dpu: no programs to run")
	}
	if len(programs) > MaxTasklets {
		return 0, fmt.Errorf("dpu: %d tasklets exceed the hardware limit of %d", len(programs), MaxTasklets)
	}
	if d.finished {
		return 0, fmt.Errorf("dpu: Run called twice without Reset")
	}

	if d.yieldedCh == nil {
		d.yieldedCh = make(chan *Tasklet)
	}
	for len(d.taskletPool) < len(programs) {
		d.taskletPool = append(d.taskletPool, &Tasklet{
			dpu:    d,
			ID:     len(d.taskletPool),
			resume: make(chan struct{}),
		})
	}
	if d.tasklets == nil {
		d.tasklets = make([]*Tasklet, 0, len(programs))
	}
	d.tasklets = d.tasklets[:0]
	d.live = len(programs)
	for i, prog := range programs {
		t := d.taskletPool[i]
		t.now = 0
		t.state = stateRunnable
		t.blockedBit = 0
		t.panicVal = nil
		t.kill = false
		t.yielded = d.yieldedCh
		t.rng = rngState(d.cfg.Seed, uint64(i))
		d.tasklets = append(d.tasklets, t)
		go t.run(prog)
	}

	for d.live > 0 {
		next := d.pickRunnable()
		if next == nil {
			d.finished = true
			err := fmt.Errorf("dpu: deadlock, %d tasklets blocked: %s", d.live, d.blockedReport())
			d.killLive()
			return 0, err
		}
		next.resume <- struct{}{}
		t := <-d.yieldedCh
		if t.state == stateDone {
			d.live--
			if t.now > d.totalCyc {
				d.totalCyc = t.now
			}
			if t.panicVal != nil {
				// A tasklet fault is a programming error in the DPU
				// program; surface it on the caller's goroutine once
				// the tasklets parked mid-program are unwound.
				d.finished = true
				d.killLive()
				panic(t.panicVal)
			}
		}
	}
	d.finished = true
	return d.totalCyc, nil
}

// killLive unwinds every tasklet of an aborted Run that has not
// finished: each is resumed with its kill flag set, so its parked yield
// panics with errKilled, and its goroutine reports done and exits.
func (d *DPU) killLive() {
	for _, t := range d.tasklets {
		if t.state == stateDone {
			continue
		}
		t.kill = true
		t.resume <- struct{}{}
		<-d.yieldedCh
	}
	d.live = 0
}

// pickRunnable returns the runnable tasklet with the smallest virtual
// time, breaking ties by tasklet ID for determinism.
func (d *DPU) pickRunnable() *Tasklet {
	var best *Tasklet
	for _, t := range d.tasklets {
		if t.state != stateRunnable {
			continue
		}
		if best == nil || t.now < best.now {
			best = t
		}
	}
	return best
}

func (d *DPU) blockedReport() string {
	s := ""
	for _, t := range d.tasklets {
		if t.state == stateBlocked {
			s += fmt.Sprintf(" t%d@bit%d", t.ID, t.blockedBit)
		}
	}
	if s == "" {
		return " (none blocked: internal error)"
	}
	return s
}

// dma charges one MRAM transfer of n bytes to tasklet time `now`,
// serializing the engine-occupancy part on the shared DMA engine, and
// returns the tasklet's completion time. Loads pay the fixed setup
// latency on top of the engine slot (data must come back); stores are
// posted and release the tasklet at the engine hand-off.
func (d *DPU) dma(now uint64, n int, store bool) uint64 {
	start := now
	if d.dmaBusyUntil > start {
		start = d.dmaBusyUntil
	}
	occupancy := uint64(dmaEngineBase) + uint64(math.Ceil(float64(n)/dmaBytesPerTwoCycles))
	d.dmaBusyUntil = start + occupancy
	d.dmaTransfers++
	d.dmaBytes += uint64(n)
	if store {
		return start + occupancy
	}
	return start + occupancy + dmaFixedLatency
}

// tier returns the backing slice of one tier.
func (d *DPU) tierSlice(a Addr) []byte {
	if a.IsWRAM() {
		return d.wram
	}
	return d.mram
}

// Writeback apply programs. The host's coordinated-transaction commit
// compiles each committed transaction's effects into a small apply
// program — packed instructions staged in the target DPU's MRAM
// alongside a table of gathered remote operands — and a writeback
// kernel executes them near the data. ApplyOp is the opcode set; the
// instruction stream and operand table are what the host↔DPU scatter
// actually carries, so their packed sizes below are also the transfer
// cost model of the commit round.

// ApplyOp is one opcode of a compiled writeback apply program.
type ApplyOp uint8

// Apply program opcodes, mirroring the host's transactional op kinds:
// reads return their value through the result gather, puts/deletes
// mutate the local partition, and the guarded ApplyAdd/ApplySub abort
// the whole program's transaction on a missing key or underflow.
const (
	ApplyGet ApplyOp = iota
	ApplyPut
	ApplyDelete
	ApplyAdd
	ApplySub
)

// ApplyInstr is one packed instruction of an apply program: an opcode
// plus the key it addresses and an immediate operand (the put value or
// RMW delta). On the wire and in MRAM it occupies ApplyInstrBytes.
type ApplyInstr struct {
	Op  ApplyOp
	Key uint64
	Val uint64
}

// ApplyOperand is one gathered remote-operand record scattered
// alongside an apply program: the pre-batch value (and presence) of a
// key the program reads but the executing DPU does not own. It
// occupies ApplyOperandBytes in MRAM and on the wire.
type ApplyOperand struct {
	Key     uint64
	Val     uint64
	Present bool
}

// Packed sizes of the apply-program wire/MRAM format.
const (
	// ApplyInstrBytes is one instruction: opcode + flags padded to a
	// 64-bit word, then the 8-byte key and 8-byte operand.
	ApplyInstrBytes = 24
	// ApplyOperandBytes is one remote-operand record: the 8-byte key
	// and the 8-byte value (presence rides the value word's tag bit
	// space, which the 16-byte record format of the gather rounds
	// already reserves).
	ApplyOperandBytes = 16
)
