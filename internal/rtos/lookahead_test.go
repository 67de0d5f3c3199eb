package rtos

import "testing"

// The lookahead bound is the kernel's half of the adaptive-synchronization
// negotiation; these tests pin its exact arithmetic, because an
// over-promise here would let the HW master elongate a quantum across a
// wakeup and silently change simulated time.

func TestNextEventBoundIdleKernel(t *testing.T) {
	k := NewKernel(testCfg())
	if got := k.NextEventBound(); got != WakeNever {
		t.Fatalf("empty kernel: bound %d, want WakeNever", got)
	}
}

func TestNextEventBoundRunnableThread(t *testing.T) {
	k := NewKernel(testCfg())
	k.CreateThread("worker", 10, func(c *ThreadCtx) {
		c.Charge(1000)
		c.Exit()
	})
	if got := k.NextEventBound(); got != 0 {
		t.Fatalf("runnable thread: bound %d, want 0", got)
	}
}

func TestNextEventBoundSleepingThread(t *testing.T) {
	cfg := testCfg() // CyclesPerTick 100, one HW tick per SW tick
	k := NewKernel(cfg)
	k.CreateThread("sleeper", 10, func(c *ThreadCtx) {
		for {
			c.Sleep(5)
		}
	})
	// The thread sleeps immediately; its wake alarm sits at SW tick 5,
	// i.e. absolute cycle 500.
	k.Advance(250)
	if got := k.NextEventBound(); got != 250 {
		t.Fatalf("mid-sleep: bound %d, want exactly 250 (alarm at cycle 500)", got)
	}
	// One cycle before the wake the bound must still be positive…
	k.Advance(249)
	if got := k.NextEventBound(); got != 1 {
		t.Fatalf("one cycle out: bound %d, want 1", got)
	}
}

func TestNextEventBoundPendingInterrupt(t *testing.T) {
	k := NewKernel(testCfg())
	fired := false
	k.AttachInterrupt(3, nil, func() { fired = true })
	k.PostIRQ(3)
	if got := k.NextEventBound(); got != 0 {
		t.Fatalf("pending interrupt: bound %d, want 0", got)
	}
	k.Advance(100)
	if !fired {
		t.Fatal("interrupt never dispatched")
	}
}

func TestNextEventBoundWakeSources(t *testing.T) {
	cfg := testCfg()
	k := NewKernel(cfg)

	// A source with nothing scheduled does not constrain the bound.
	k.AddDevice(Device{Tick: func(uint64) {}, Wake: func() uint64 { return WakeNever }})
	if got := k.NextEventBound(); got != WakeNever {
		t.Fatalf("WakeNever source: bound %d, want WakeNever", got)
	}

	// A source n HW ticks out converts to cycles: the partial distance to
	// the next tick boundary plus n-1 whole periods.
	ticks := uint64(3)
	k.AddDevice(Device{Tick: func(uint64) {}, Wake: func() uint64 { return ticks }})
	if got := k.NextEventBound(); got != 300 {
		t.Fatalf("3-tick source at cycle 0: bound %d, want 300", got)
	}
	k.Advance(30)
	if got := k.NextEventBound(); got != 270 {
		t.Fatalf("3-tick source at cycle 30: bound %d, want 270", got)
	}

	// An imminent source pins the bound to zero.
	ticks = 0
	if got := k.NextEventBound(); got != 0 {
		t.Fatalf("imminent source: bound %d, want 0", got)
	}
}

func TestNextEventBoundTakesEarliest(t *testing.T) {
	cfg := testCfg()
	k := NewKernel(cfg)
	// An alarm at SW tick 7 (cycle 700) and a device wake at HW tick 4
	// (cycle 400).
	k.AlarmAfter(7, func() {})
	k.AddDevice(Device{Tick: func(uint64) {}, Wake: func() uint64 { return 4 }})
	if got := k.NextEventBound(); got != 400 {
		t.Fatalf("bound %d, want 400 (device wake earlier than alarm)", got)
	}
}

func TestNextEventBoundDueAlarm(t *testing.T) {
	k := NewKernel(testCfg())
	k.AlarmAfter(0, func() {}) // due at the current SW tick
	if got := k.NextEventBound(); got != 0 {
		t.Fatalf("due alarm: bound %d, want 0", got)
	}
}
