package rtos

import "testing"

// TestAllocsAdvance pins the kernel's per-quantum floor at zero
// allocations: granting time to an idle kernel (timer ticks, tick hooks,
// the scheduler's empty pick) and the ISR/DSR dispatch path (post, claim,
// DSR queue) must not touch the heap once warm.
func TestAllocsAdvance(t *testing.T) {
	idle := NewKernel(DefaultConfig())
	idle.Advance(1000)
	if avg := testing.AllocsPerRun(200, func() { idle.Advance(1000) }); avg > raceAllocSlack {
		t.Errorf("idle Advance(1000): %.2f allocs/run, want 0", avg)
	}

	k := NewKernel(DefaultConfig())
	served := 0
	k.AttachInterrupt(1, nil, func() { served++ })
	k.AttachInterrupt(30, func() bool { return true }, func() { served++ })
	dispatch := func() {
		k.PostIRQ(30)
		k.PostIRQ(1)
		k.Advance(100)
	}
	dispatch()
	if avg := testing.AllocsPerRun(200, dispatch); avg > raceAllocSlack {
		t.Errorf("interrupt dispatch: %.2f allocs/run, want 0", avg)
	}
	if served != 2*202 { // warm-up, AllocsPerRun's own warm-up, 200 runs
		t.Fatalf("served %d DSRs, want %d", served, 2*202)
	}
}
