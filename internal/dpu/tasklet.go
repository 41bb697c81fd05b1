package dpu

import (
	"encoding/binary"
	"fmt"
)

type taskletState int

const (
	stateRunnable taskletState = iota
	stateBlocked
	stateDone
)

// Tasklet is one simulated hardware thread of a DPU. All memory,
// synchronization and timing operations of a DPU program go through its
// tasklet. Methods on Tasklet must only be called from the program
// function the tasklet was launched with.
type Tasklet struct {
	dpu *DPU
	// ID is the hardware thread index, 0-based, unique within the DPU.
	ID int

	now     uint64
	state   taskletState
	resume  chan struct{}
	yielded chan *Tasklet

	blockedBit int  // valid while state == stateBlocked
	panicVal   any  // fault captured from the program body
	kill       bool // set by the scheduler to unwind a parked program

	rng uint64
}

// errKilled is the panic value that unwinds a parked tasklet's program
// when its Run ends early in a fault or a deadlock.
type errKilled struct{}

// run is the goroutine of one tasklet for one Run: it waits for the
// scheduler's first resume, executes the program with fault capture and
// reports completion through the yielded channel, then exits. A Run
// therefore owns its goroutines; none outlives the program it ran.
func (t *Tasklet) run(body func(*Tasklet)) {
	defer func() {
		if r := recover(); r != nil {
			if _, killed := r.(errKilled); !killed {
				t.panicVal = r
			}
		}
		t.state = stateDone
		t.yielded <- t
	}()
	<-t.resume
	if t.kill {
		return
	}
	body(t)
}

// DPU returns the hosting DPU.
func (t *Tasklet) DPU() *DPU { return t.dpu }

// Now returns the tasklet's current virtual time in cycles.
func (t *Tasklet) Now() uint64 { return t.now }

// yield hands control back to the scheduler and waits until this tasklet
// is the globally oldest runnable one. Every shared-state access yields
// first so that accesses happen in virtual-time order.
func (t *Tasklet) yield() {
	if t.kill {
		panic(errKilled{}) // a deferred call in an unwinding program
	}
	t.yielded <- t
	<-t.resume
	if t.kill {
		panic(errKilled{})
	}
}

// instr charges n instruction issue slots without yielding. Use for
// private computation; shared accesses must go through the Load/Store/
// atomic helpers.
func (t *Tasklet) instr(n int) {
	t.now += uint64(n) * t.dpu.issueInterval()
}

// Exec models n instructions of non-memory application compute
// (arithmetic, branches, private register work).
func (t *Tasklet) Exec(n int) { t.instr(n) }

// AdvanceTo moves the tasklet clock forward to at least cyc. Used by
// host-level coordination (e.g. barrier release at the latest arrival).
func (t *Tasklet) AdvanceTo(cyc uint64) {
	if cyc > t.now {
		t.now = cyc
	}
}

// checkAddr panics on out-of-range accesses: simulated memory faults are
// programming errors in the DPU program, mirroring a hardware fault.
func (t *Tasklet) checkAddr(a Addr, size int) {
	mem := t.dpu.tierSlice(a)
	off := int(a.Offset())
	if off < 0 || off+size > len(mem) {
		panic(fmt.Sprintf("dpu: tasklet %d memory fault at %v size %d", t.ID, a, size))
	}
}

// access charges the latency of one memory access of n bytes at address
// a: one pipeline slot for WRAM, a DMA engine transfer for MRAM. Loads
// pay the full round-trip latency; stores are posted — the tasklet only
// waits for the engine hand-off, not for data to come back. It yields
// before the access so shared state is touched in time order.
func (t *Tasklet) access(a Addr, n int, store bool) {
	t.yield()
	t.instr(1)
	if !a.IsWRAM() {
		t.now = t.dpu.dma(t.now, n, store)
	}
}

// Load64 reads a 64-bit little-endian word from simulated memory.
func (t *Tasklet) Load64(a Addr) uint64 {
	t.checkAddr(a, 8)
	t.access(a, 8, false)
	return binary.LittleEndian.Uint64(t.dpu.tierSlice(a)[a.Offset():])
}

// Store64 writes a 64-bit little-endian word to simulated memory.
func (t *Tasklet) Store64(a Addr, v uint64) {
	t.checkAddr(a, 8)
	t.access(a, 8, true)
	binary.LittleEndian.PutUint64(t.dpu.tierSlice(a)[a.Offset():], v)
}

// Load32 reads a 32-bit word (used for the rw-lock table of the VR STM).
func (t *Tasklet) Load32(a Addr) uint32 {
	t.checkAddr(a, 4)
	t.access(a, 4, false)
	return binary.LittleEndian.Uint32(t.dpu.tierSlice(a)[a.Offset():])
}

// Store32 writes a 32-bit word.
func (t *Tasklet) Store32(a Addr, v uint32) {
	t.checkAddr(a, 4)
	t.access(a, 4, true)
	binary.LittleEndian.PutUint32(t.dpu.tierSlice(a)[a.Offset():], v)
}

// ReadBulk copies len(dst) bytes from simulated memory into dst as a
// single transfer (one DMA for MRAM). Used for block operations such as
// Labyrinth's private grid copies.
func (t *Tasklet) ReadBulk(dst []byte, a Addr) {
	t.checkAddr(a, len(dst))
	t.access(a, len(dst), false)
	copy(dst, t.dpu.tierSlice(a)[a.Offset():])
}

// WriteBulk copies src into simulated memory as a single transfer.
func (t *Tasklet) WriteBulk(a Addr, src []byte) {
	t.checkAddr(a, len(src))
	t.access(a, len(src), true)
	copy(t.dpu.tierSlice(a)[a.Offset():], src)
}

// ChargePrivate charges the cost of loading n bytes of per-tasklet
// private metadata hosted in the given tier, without touching simulated
// memory contents. WRAM-private traffic costs one pipeline slot and does
// not yield (no shared state involved); MRAM-private traffic contends on
// the shared DMA engine like any other transfer.
func (t *Tasklet) ChargePrivate(tier Tier, n int) {
	if tier == WRAM {
		t.instr(1)
		return
	}
	t.yield()
	t.instr(1)
	t.now = t.dpu.dma(t.now, n, false)
}

// ChargePrivateStore is ChargePrivate for writes: MRAM stores are
// posted, so only the engine hand-off is paid.
func (t *Tasklet) ChargePrivateStore(tier Tier, n int) {
	if tier == WRAM {
		t.instr(1)
		return
	}
	t.yield()
	t.instr(1)
	t.now = t.dpu.dma(t.now, n, true)
}

// Rand returns the next value of the tasklet's deterministic PRNG
// (xorshift64*). Each tasklet's stream depends on the DPU seed and the
// tasklet ID only.
func (t *Tasklet) Rand() uint64 {
	x := t.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rng = x
	return x * 0x2545F4914F6CDD1D
}

// RandN returns a deterministic pseudo-random value in [0, n).
func (t *Tasklet) RandN(n int) int {
	if n <= 0 {
		panic("dpu: RandN with non-positive bound")
	}
	return int(t.Rand() % uint64(n))
}

// rngState derives a non-zero PRNG state from the DPU seed and tasklet
// index using splitmix64.
func rngState(seed, id uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + (id+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	return z
}

// FetchApplyInstr charges streaming one packed instruction of a
// writeback apply program from the tasklet's MRAM staging buffer (one
// DMA load of ApplyInstrBytes) plus the decode/dispatch issue slot.
// The kernel-side commit path calls this once per compiled instruction
// before executing it, so apply programs pay for their own code the
// way the real writeback kernels would.
func (t *Tasklet) FetchApplyInstr() {
	t.ChargePrivate(MRAM, ApplyInstrBytes)
	t.instr(1)
}

// FetchApplyOperand charges reading one gathered remote-operand record
// from the apply program's MRAM operand table — the lookup an apply
// instruction performs when its key lives on another DPU and was
// snapshotted by the prepare round.
func (t *Tasklet) FetchApplyOperand() {
	t.ChargePrivate(MRAM, ApplyOperandBytes)
}
