package rtos

import (
	"testing"
)

func testCfg() Config {
	return Config{
		CyclesPerTick:    100,
		HWTicksPerSWTick: 1,
		TimesliceTicks:   5,
		// Zero kernel costs make arithmetic exact in unit tests; timing
		// tests below re-enable them explicitly.
		ISRCost:        0,
		DSRCost:        0,
		CtxSwitchCost:  0,
		IdleSwitchCost: 0,
	}
}

func TestChargeAdvancesTime(t *testing.T) {
	k := NewKernel(testCfg())
	done := false
	k.CreateThread("worker", 10, func(c *ThreadCtx) {
		c.Charge(250)
		done = true
		c.Exit()
	})
	k.Advance(1000)
	if !done {
		t.Fatal("worker did not complete")
	}
	if k.Cycles() != 1000 {
		t.Fatalf("cycles = %d, want 1000 (budget fully consumed)", k.Cycles())
	}
	st := k.Stats()
	if st.BusyCycles != 250 {
		t.Fatalf("busy cycles = %d, want 250", st.BusyCycles)
	}
	if st.IdleCycles != 750 {
		t.Fatalf("idle cycles = %d, want 750", st.IdleCycles)
	}
}

func TestChargeSpansQuanta(t *testing.T) {
	k := NewKernel(testCfg())
	done := false
	k.CreateThread("long", 10, func(c *ThreadCtx) {
		c.Charge(950) // needs multiple 300-cycle quanta
		done = true
		c.Exit()
	})
	for i := 0; i < 3; i++ {
		k.Advance(300)
		if done {
			t.Fatalf("completed after %d quanta, want 4", i+1)
		}
	}
	k.Advance(300)
	if !done {
		t.Fatal("charge did not resume across quantum boundaries")
	}
	if got := k.Stats().BusyCycles; got != 950 {
		t.Fatalf("busy cycles %d, want 950", got)
	}
}

func TestTimerTicksAndSWTick(t *testing.T) {
	cfg := testCfg()
	cfg.HWTicksPerSWTick = 4
	k := NewKernel(cfg)
	k.Advance(1000) // 10 HW ticks
	if k.HWTick() != 10 {
		t.Fatalf("hw ticks = %d, want 10", k.HWTick())
	}
	if k.SWTick() != 2 {
		t.Fatalf("sw ticks = %d, want 2 (divider 4)", k.SWTick())
	}
}

func TestPriorityScheduling(t *testing.T) {
	k := NewKernel(testCfg())
	var order []string
	mk := func(name string, prio int) {
		k.CreateThread(name, prio, func(c *ThreadCtx) {
			c.Charge(100)
			order = append(order, name)
			c.Exit()
		})
	}
	mk("low", 20)
	mk("high", 2)
	mk("mid", 10)
	k.Advance(10000)
	want := []string{"high", "mid", "low"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("completion order %v, want %v", order, want)
		}
	}
}

func TestSleepAndAlarms(t *testing.T) {
	k := NewKernel(testCfg())
	var wakeTicks []uint64
	k.CreateThread("sleeper", 5, func(c *ThreadCtx) {
		for i := 0; i < 3; i++ {
			c.Sleep(10)
			wakeTicks = append(wakeTicks, k.SWTick())
		}
		c.Exit()
	})
	k.Advance(100 * 100) // 100 ticks
	want := []uint64{10, 20, 30}
	if len(wakeTicks) != 3 {
		t.Fatalf("woke %d times: %v", len(wakeTicks), wakeTicks)
	}
	for i := range want {
		if wakeTicks[i] != want[i] {
			t.Fatalf("wake ticks %v, want %v", wakeTicks, want)
		}
	}
}

func TestAlarmAfterCallback(t *testing.T) {
	k := NewKernel(testCfg())
	fired := uint64(0)
	k.AlarmAfter(7, func() { fired = k.SWTick() })
	k.Advance(2000)
	if fired != 7 {
		t.Fatalf("alarm fired at tick %d, want 7", fired)
	}
}

func TestTimeslicePreemption(t *testing.T) {
	cfg := testCfg()
	cfg.TimesliceTicks = 2 // 200 cycles per slice
	k := NewKernel(cfg)
	var trace []string
	mk := func(name string) {
		k.CreateThread(name, 10, func(c *ThreadCtx) {
			for i := 0; i < 3; i++ {
				c.Charge(200)
				trace = append(trace, name)
			}
			c.Exit()
		})
	}
	mk("a")
	mk("b")
	k.Advance(5000)
	// With equal priority and a 200-cycle slice, completions interleave:
	// strictly alternating a,b,a,b,... rather than a,a,a,b,b,b.
	if len(trace) != 6 {
		t.Fatalf("trace %v", trace)
	}
	sawAlternation := false
	for i := 1; i < len(trace); i++ {
		if trace[i] != trace[i-1] {
			sawAlternation = true
		}
	}
	if !sawAlternation {
		t.Fatalf("no round-robin interleaving: %v", trace)
	}
}

func TestTimeslicingDisabledRunsToBlock(t *testing.T) {
	cfg := testCfg()
	cfg.TimesliceTicks = 0
	k := NewKernel(cfg)
	var trace []string
	mk := func(name string) {
		k.CreateThread(name, 10, func(c *ThreadCtx) {
			c.Charge(600)
			trace = append(trace, name)
			c.Exit()
		})
	}
	mk("first")
	mk("second")
	k.Advance(5000)
	if len(trace) != 2 || trace[0] != "first" || trace[1] != "second" {
		t.Fatalf("without timeslicing want FIFO completion, got %v", trace)
	}
}

func TestInterruptISRDSRAndWake(t *testing.T) {
	cfg := testCfg()
	cfg.ISRCost, cfg.DSRCost = 25, 15
	k := NewKernel(cfg)
	sem := k.NewSemaphore("data", 0)
	var serviced int
	isrRan, dsrRan := 0, 0
	k.AttachInterrupt(4,
		func() bool { isrRan++; return true },
		func() { dsrRan++; sem.Post() },
	)
	k.CreateThread("service", 3, func(c *ThreadCtx) {
		for {
			sem.Wait(c)
			c.Charge(50)
			serviced++
		}
	})
	k.PostIRQ(4)
	k.Advance(1000)
	if isrRan != 1 || dsrRan != 1 || serviced != 1 {
		t.Fatalf("isr=%d dsr=%d serviced=%d, want 1/1/1", isrRan, dsrRan, serviced)
	}
	st := k.Stats()
	if st.ISRs != 1 || st.DSRs != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.KernelCycles < 40 {
		t.Fatalf("kernel cycles %d, want ≥ ISR+DSR cost 40", st.KernelCycles)
	}
}

func TestInterruptMidQuantumPreemptsCharge(t *testing.T) {
	k := NewKernel(testCfg())
	sem := k.NewSemaphore("s", 0)
	var events []string
	k.AttachInterrupt(1, nil, func() { sem.Post() })
	k.CreateThread("hi", 1, func(c *ThreadCtx) {
		sem.Wait(c)
		events = append(events, "hi-serviced")
		c.Exit()
	})
	k.CreateThread("lo", 20, func(c *ThreadCtx) {
		// Post the IRQ from "hardware" at tick 3 via an alarm, then keep
		// computing; the high-priority thread must preempt.
		k.AlarmAfter(3, func() { k.PostIRQ(1) })
		c.Charge(2000)
		events = append(events, "lo-done")
		c.Exit()
	})
	k.Advance(5000)
	if len(events) != 2 || events[0] != "hi-serviced" || events[1] != "lo-done" {
		t.Fatalf("events %v, want hi preempting lo", events)
	}
}

func TestMaskedInterruptHeldPending(t *testing.T) {
	k := NewKernel(testCfg())
	fired := 0
	k.AttachInterrupt(2, nil, func() { fired++ })
	k.MaskInterrupt(2)
	k.PostIRQ(2)
	k.Advance(500)
	if fired != 0 {
		t.Fatal("masked interrupt delivered")
	}
	if !k.IRQPending(2) {
		t.Fatal("pending latch lost while masked")
	}
	k.UnmaskInterrupt(2)
	k.Advance(500)
	if fired != 1 {
		t.Fatalf("after unmask fired=%d, want 1", fired)
	}
}

func TestIdleStateOnlyRunsCommThreads(t *testing.T) {
	k := NewKernel(testCfg())
	var normalRan, commRan int
	k.CreateThread("app", 10, func(c *ThreadCtx) {
		for {
			normalRan++
			c.Charge(10)
			c.Yield()
		}
	})
	// The channel thread sits at low priority (like an idle-adjacent
	// service thread) so it cannot starve the application in NORMAL state.
	k.CreateThread("channel", 25, func(c *ThreadCtx) {
		for {
			commRan++
			c.Charge(10)
			c.Yield()
		}
	}, Comm())
	if k.State() != StateIdle {
		t.Fatalf("initial state %v, want idle", k.State())
	}
	// Between quanta (idle state), only the comm thread may run.
	k.RunIdleComm(3)
	if normalRan != 0 {
		t.Fatalf("application thread ran %d times in idle state", normalRan)
	}
	if commRan == 0 {
		t.Fatal("communication thread did not run in idle state")
	}
	// Inside a quantum both run.
	k.Advance(500)
	if k.State() != StateIdle {
		t.Fatalf("state after Advance = %v, want idle", k.State())
	}
	if normalRan == 0 {
		t.Fatal("application thread did not run in normal state")
	}
	if k.Stats().StateSwitches < 2 {
		t.Fatalf("state switches %d, want ≥ 2", k.Stats().StateSwitches)
	}
	k.Shutdown()
}

func TestTimesliceSavedAcrossIdle(t *testing.T) {
	cfg := testCfg()
	cfg.TimesliceTicks = 5
	k := NewKernel(cfg)
	k.CreateThread("a", 10, func(c *ThreadCtx) {
		c.Charge(100000)
	})
	k.CreateThread("b", 10, func(c *ThreadCtx) {
		c.Charge(100000)
	})
	// Advance by 1.5 ticks: thread a consumed half of a slice tick.
	k.Advance(150)
	aSlice := k.threads[0].slice
	// Crossing the idle state must not reset the remaining timeslice.
	k.Advance(150)
	if k.threads[0].slice > aSlice {
		t.Fatalf("timeslice grew across idle: %d → %d", aSlice, k.threads[0].slice)
	}
	k.Shutdown()
}

func TestContextSwitchAccounting(t *testing.T) {
	cfg := testCfg()
	cfg.CtxSwitchCost = 10
	cfg.TimesliceTicks = 1
	k := NewKernel(cfg)
	for _, n := range []string{"x", "y"} {
		k.CreateThread(n, 10, func(c *ThreadCtx) {
			c.Charge(5000)
		})
	}
	k.Advance(3000)
	st := k.Stats()
	if st.ContextSwitches == 0 {
		t.Fatal("no context switches recorded")
	}
	if st.KernelCycles < st.ContextSwitches*10 {
		t.Fatalf("kernel cycles %d below switch cost × %d", st.KernelCycles, st.ContextSwitches)
	}
	k.Shutdown()
}

func TestIdleSwitchCostCharged(t *testing.T) {
	cfg := testCfg()
	cfg.IdleSwitchCost = 30
	k := NewKernel(cfg)
	for i := 0; i < 10; i++ {
		k.Advance(100)
	}
	if got := k.Stats().KernelCycles; got != 300 {
		t.Fatalf("kernel cycles %d, want 300 (10 quanta × 30)", got)
	}
}

func TestThreadExitAndShutdownReclaim(t *testing.T) {
	k := NewKernel(testCfg())
	k.CreateThread("quick", 5, func(c *ThreadCtx) {
		c.Charge(10)
		c.Exit()
	})
	blocked := k.CreateThread("stuck", 6, func(c *ThreadCtx) {
		s := k.NewSemaphore("never", 0)
		s.Wait(c)
	})
	k.Advance(1000)
	if k.threads[0].State() != ThreadExited {
		t.Fatalf("quick thread state %v", k.threads[0].State())
	}
	if blocked.State() != ThreadBlocked {
		t.Fatalf("stuck thread state %v", blocked.State())
	}
	k.Shutdown()
	if blocked.State() != ThreadExited {
		t.Fatalf("after shutdown stuck thread state %v", blocked.State())
	}
}

func TestDeadlockCheck(t *testing.T) {
	k := NewKernel(testCfg())
	k.CreateThread("d", 5, func(c *ThreadCtx) {
		k.NewSemaphore("never", 0).Wait(c)
	})
	k.Advance(500)
	if err := k.DeadlockCheck(); err == nil {
		t.Fatal("deadlock not detected")
	}
	k.Shutdown()

	k2 := NewKernel(testCfg())
	k2.CreateThread("s", 5, func(c *ThreadCtx) { c.Sleep(1000000) })
	k2.Advance(500)
	if err := k2.DeadlockCheck(); err != nil {
		t.Fatalf("sleeping thread misreported as deadlock: %v", err)
	}
	k2.Shutdown()
}

func TestCreateThreadValidation(t *testing.T) {
	k := NewKernel(testCfg())
	for _, bad := range []int{-1, NumPriorities} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("priority %d accepted", bad)
				}
			}()
			k.CreateThread("bad", bad, func(*ThreadCtx) {})
		}()
	}
	k.Advance(1)
	defer func() {
		if recover() == nil {
			t.Fatal("CreateThread after Advance accepted")
		}
	}()
	k.CreateThread("late", 1, func(*ThreadCtx) {})
}

func TestPostUnattachedIRQPanics(t *testing.T) {
	k := NewKernel(testCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("PostIRQ on unattached vector accepted")
		}
	}()
	k.PostIRQ(9)
}

func TestTickHooks(t *testing.T) {
	k := NewKernel(testCfg())
	var ticks []uint64
	k.AddDevice(Device{Tick: func(ht uint64) { ticks = append(ticks, ht) }})
	k.Advance(350)
	if len(ticks) != 3 {
		t.Fatalf("tick hook ran %d times for 3.5 ticks, want 3", len(ticks))
	}
	for i, ht := range ticks {
		if ht != uint64(i+1) {
			t.Fatalf("tick sequence %v", ticks)
		}
	}
}

func TestUtilization(t *testing.T) {
	k := NewKernel(testCfg())
	if k.Utilization() != 0 {
		t.Fatal("fresh kernel reports nonzero utilization")
	}
	k.CreateThread("half", 10, func(c *ThreadCtx) {
		c.Charge(500)
		c.Exit()
	})
	k.Advance(1000)
	if u := k.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization %.3f, want ≈0.5", u)
	}
}

func TestStateStrings(t *testing.T) {
	if StateIdle.String() != "idle" || StateNormal.String() != "normal" {
		t.Fatal("OSState strings")
	}
	for st := ThreadReady; st <= ThreadExited; st++ {
		if st.String() == "" {
			t.Fatalf("no name for thread state %d", st)
		}
	}
	if ThreadState(42).String() == "" {
		t.Fatal("unknown state string empty")
	}
}
