package dpu

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// taskletGoroutines counts live goroutines running a tasklet program.
func taskletGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "dpu.(*Tasklet)") {
			n++
		}
	}
	return n
}

// waitNoTasklets fails the test unless every tasklet goroutine exits.
// A tasklet reports done to the scheduler just before its goroutine
// returns, so the count may lag Run by a few scheduler ticks.
func waitNoTasklets(t *testing.T, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := taskletGoroutines()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s left %d tasklet goroutines behind", what, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkRunsAfterReset proves the DPU hosts a fresh program after Reset.
func checkRunsAfterReset(t *testing.T, d *DPU) {
	t.Helper()
	d.Reset()
	word := d.MustAlloc(MRAM, 8, 8)
	m := NewMutex(d.MustAlloc(WRAM, 4, 4))
	progs := make([]func(*Tasklet), 4)
	for i := range progs {
		progs[i] = func(tk *Tasklet) {
			for j := 0; j < 10; j++ {
				m.Lock(tk)
				tk.Store64(word, tk.Load64(word)+1)
				m.Unlock(tk)
			}
		}
	}
	mustRun(t, d, progs)
	if got := d.HostRead64(word); got != 40 {
		t.Fatalf("counter after Reset = %d, want 40", got)
	}
	waitNoTasklets(t, "a clean Run")
}

// TestFaultedRunReleasesTasklets: a Run that ends in a tasklet panic
// unwinds every other tasklet — one spinning on MRAM, one blocked on a
// held atomic bit, one with a deferred release pending, one parked far
// in the future, and (in a second Run) ones never started — and the DPU
// runs again after Reset.
func TestFaultedRunReleasesTasklets(t *testing.T) {
	d := newTestDPU()
	word := d.MustAlloc(MRAM, 8, 8)
	held := d.MustAlloc(WRAM, 8, 8)
	other := d.MustAlloc(WRAM, 8, 8)
	progs := []func(*Tasklet){
		func(tk *Tasklet) {
			for i := 0; i < 20; i++ {
				tk.Load64(word)
			}
			panic("program fault")
		},
		func(tk *Tasklet) {
			tk.Acquire(held)
			for {
				tk.Load64(word)
			}
		},
		func(tk *Tasklet) {
			tk.Exec(50)
			tk.Acquire(held)
		},
		func(tk *Tasklet) {
			tk.Acquire(other)
			defer tk.Release(other)
			for {
				tk.Store64(word, 1)
			}
		},
		func(tk *Tasklet) {
			tk.Exec(1 << 30)
			tk.Load64(word)
		},
	}
	mustFault(t, d, progs)
	waitNoTasklets(t, "a faulted Run")
	checkRunsAfterReset(t, d)

	// The first tasklet faults before any yield: the rest never start.
	d.Reset()
	word = d.MustAlloc(MRAM, 8, 8)
	idle := func(tk *Tasklet) { tk.Load64(word) }
	mustFault(t, d, []func(*Tasklet){func(*Tasklet) { panic("program fault") }, idle, idle})
	waitNoTasklets(t, "a Run faulted before its tasklets started")
	checkRunsAfterReset(t, d)
}

// mustFault runs progs and requires Run to re-raise the program fault.
func mustFault(t *testing.T, d *DPU, progs []func(*Tasklet)) {
	t.Helper()
	defer func() {
		if r := recover(); r != "program fault" {
			t.Fatalf("Run panicked with %v, want the program fault", r)
		}
	}()
	_, _ = d.Run(progs)
}

// TestDeadlockedRunReleasesTasklets: a Run that ends in a deadlock
// returns its error with every blocked tasklet unwound, and the DPU runs
// again after Reset.
func TestDeadlockedRunReleasesTasklets(t *testing.T) {
	d := newTestDPU()
	a := d.MustAlloc(WRAM, 8, 8)
	b := d.MustAlloc(WRAM, 8, 8)
	if HashBit(a) == HashBit(b) {
		t.Skip("test addresses alias to one atomic bit")
	}
	progs := []func(*Tasklet){
		func(tk *Tasklet) {
			tk.Acquire(a)
			tk.Exec(10)
			tk.Acquire(b)
		},
		func(tk *Tasklet) {
			tk.Acquire(b)
			tk.Exec(10)
			tk.Acquire(a)
		},
	}
	if _, err := d.Run(progs); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run error = %v, want a deadlock", err)
	}
	waitNoTasklets(t, "a deadlocked Run")
	checkRunsAfterReset(t, d)
}
