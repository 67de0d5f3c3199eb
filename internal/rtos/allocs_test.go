package rtos

import "testing"

// TestAllocsAdvance pins the kernel's per-quantum floor at zero
// allocations: granting time to an idle kernel (timer ticks, a tick
// device, the scheduler's empty pick) and the ISR/DSR dispatch path
// (post, claim, DSR queue) must not touch the heap once warm.
func TestAllocsAdvance(t *testing.T) {
	idle := NewKernel(DefaultConfig())
	idle.Advance(1000)
	if avg := testing.AllocsPerRun(200, func() { idle.Advance(1000) }); avg > raceAllocSlack {
		t.Errorf("idle Advance(1000): %.2f allocs/run, want 0", avg)
	}

	// The same with a bark-only watchdog's tick device: the idle kernel
	// counts the ticks before each bark in bulk and runs the bark's tick.
	watched := NewKernel(DefaultConfig())
	var lastPet, barks uint64
	const timeout = 7
	watched.AddDevice(Device{
		Tick: func(hwTick uint64) {
			if hwTick-lastPet >= timeout {
				barks++
				lastPet = hwTick
			}
		},
		Quiet: func() uint64 { return lastPet + timeout - watched.HWTick() - 1 },
	})
	watched.Advance(1000)
	if avg := testing.AllocsPerRun(200, func() { watched.Advance(1000) }); avg > raceAllocSlack {
		t.Errorf("idle Advance(1000) with a watchdog: %.2f allocs/run, want 0", avg)
	}
	if want := watched.HWTick() / timeout; barks != want {
		t.Fatalf("watchdog barked %d times in %d ticks, want %d", barks, watched.HWTick(), want)
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
