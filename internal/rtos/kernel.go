// Package rtos implements an eCos-like real-time kernel running in virtual
// time, the software half of the co-simulation framework of Fummi et al.
// (DATE 2005). It provides priority-scheduled threads with timeslicing,
// alarms, ISR/DSR split interrupt handling, synchronization primitives
// (mutex, semaphore, mailbox), and a device-driver registry — plus the
// paper's section 5.3 modifications: the kernel's notion of time is a
// *virtual tick* granted from outside (the hardware simulator), and the OS
// alternates between a NORMAL state, where ordinary scheduling happens,
// and an IDLE state between grants, in which only the communication
// threads may run.
//
// Threads are goroutine-backed coroutines (sim.Coroutine): exactly one
// thread body executes at a time, on the goroutine that calls
// Kernel.Advance, so the kernel needs no internal locking and executions
// are deterministic.
//
// Time model: the kernel counts CPU cycles. A hardware timer interrupt
// fires every CyclesPerTick cycles (one HW tick); every HWTicksPerSWTick
// HW ticks the timer ISR advances the software tick counter, expires
// alarms and performs timeslice accounting — exactly the structure the
// paper describes for the eCos timer path. Cycles only elapse inside
// Advance, i.e. when the simulator has granted virtual time.
package rtos

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// OSState is the paper's two-state OS mode.
type OSState int

const (
	// StateIdle: between quanta; only communication threads (and the idle
	// thread) are eligible.
	StateIdle OSState = iota
	// StateNormal: inside a granted quantum; ordinary scheduling.
	StateNormal
)

// String implements fmt.Stringer.
func (s OSState) String() string {
	if s == StateNormal {
		return "normal"
	}
	return "idle"
}

// NumPriorities is the eCos-style priority range: 0 (highest) .. 31
// (lowest, conventionally the idle thread).
const NumPriorities = 32

// Config parameterizes the kernel's timing model.
type Config struct {
	// CyclesPerTick is the hardware timer period in CPU cycles (one HW
	// tick). Must be ≥ 1.
	CyclesPerTick uint64
	// HWTicksPerSWTick is the timer-ISR divider: the SW tick (scheduler
	// tick) advances once per this many HW ticks. Must be ≥ 1.
	HWTicksPerSWTick uint64
	// TimesliceTicks is the round-robin quantum, in SW ticks, for threads
	// of equal priority. 0 disables timeslicing.
	TimesliceTicks uint64
	// ISRCost / DSRCost are the cycle charges for each interrupt service
	// routine and deferred service routine execution.
	ISRCost, DSRCost uint64
	// CtxSwitchCost is the cycle charge applied whenever the scheduler
	// switches between two different threads.
	CtxSwitchCost uint64
	// IdleSwitchCost is the cycle charge for one NORMAL→IDLE→NORMAL round
	// trip, applied at the start of each quantum. It models the cost the
	// paper attributes to "the OS … switching between the running and the
	// idle state".
	IdleSwitchCost uint64
}

// DefaultConfig returns the timing model used by the experiments: a 100 MHz
// CPU with the HW timer at one tick per 100 cycles (1 µs), the SW tick
// equal to one HW tick, and small fixed kernel-path costs.
func DefaultConfig() Config {
	return Config{
		CyclesPerTick:    100,
		HWTicksPerSWTick: 1,
		TimesliceTicks:   5,
		ISRCost:          25,
		DSRCost:          15,
		CtxSwitchCost:    10,
		IdleSwitchCost:   30,
	}
}

// Stats aggregates kernel activity counters.
type Stats struct {
	ContextSwitches uint64
	TimerTicks      uint64 // HW ticks
	SWTicks         uint64
	ISRs            uint64
	DSRs            uint64
	IdleCycles      uint64 // cycles burned with no runnable thread
	BusyCycles      uint64 // cycles charged to threads
	KernelCycles    uint64 // cycles charged to ISRs/DSRs/switches
	StateSwitches   uint64 // NORMAL↔IDLE transitions
}

// Kernel is the RTOS instance.
type Kernel struct {
	cfg Config

	cycles uint64 // CPU cycles elapsed (virtual)
	toTick uint64 // cycles left until the next HW tick, in 1..CyclesPerTick
	hwTick uint64
	swTick uint64

	state   OSState
	current *Thread
	lastRun *Thread // for context-switch accounting
	runq    [NumPriorities][]*Thread
	threads []*Thread
	// readyMask has bit p set exactly when runq[p] is non-empty, so the
	// scheduler visits only occupied priority levels.
	readyMask uint32

	budgetLeft  uint64
	needResched bool

	irq interruptController
	// alarms holds the SW-tick-keyed callbacks, FIFO among equal ticks.
	alarms sim.Queue

	devices []Device // on-board hardware clocked by the HW timer (device.go)

	drivers map[string]Driver

	// savedSliceValid/savedSlice implement the paper's context save of the
	// preempted thread's timeslice across the idle state.
	savedThread *Thread
	savedSlice  uint64

	stats    Stats
	started  bool
	spinning int // consecutive resumes with no cycle progress (runaway guard)
}

// NewKernel creates a kernel with the given configuration.
func NewKernel(cfg Config) *Kernel {
	if cfg.CyclesPerTick == 0 {
		cfg.CyclesPerTick = 1
	}
	if cfg.HWTicksPerSWTick == 0 {
		cfg.HWTicksPerSWTick = 1
	}
	k := &Kernel{cfg: cfg, toTick: cfg.CyclesPerTick, state: StateIdle, drivers: make(map[string]Driver)}
	k.irq.init()
	return k
}

// Cfg returns the kernel configuration.
func (k *Kernel) Cfg() Config { return k.cfg }

// Cycles returns elapsed CPU cycles (board local time).
func (k *Kernel) Cycles() uint64 { return k.cycles }

// HWTick returns the hardware timer tick count.
func (k *Kernel) HWTick() uint64 { return k.hwTick }

// SWTick returns the software (scheduler) tick count — the counter that
// the virtual-tick protocol drives.
func (k *Kernel) SWTick() uint64 { return k.swTick }

// State returns the current OS state.
func (k *Kernel) State() OSState { return k.state }

// Stats returns a snapshot of the activity counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Utilization returns the fraction of elapsed cycles spent in application
// threads (busy / total). It is 0 before any cycle has elapsed.
func (k *Kernel) Utilization() float64 {
	if k.cycles == 0 {
		return 0
	}
	return float64(k.stats.BusyCycles) / float64(k.cycles)
}

// ready puts a thread on its priority run queue. Readying a thread that
// outranks the one currently executing requests preemption at the next
// safe point (the kernel is fully preemptive, like eCos).
func (k *Kernel) ready(t *Thread) {
	if t.state == ThreadExited {
		return
	}
	t.state = ThreadReady
	k.enqueue(t)
	if k.current != nil && t.prio < k.current.prio {
		k.needResched = true
	}
}

// enqueue appends t to the tail of its priority's run queue.
func (k *Kernel) enqueue(t *Thread) {
	k.runq[t.prio] = append(k.runq[t.prio], t)
	k.readyMask |= 1 << t.prio
}

// dequeue removes the i-th entry of priority p's run queue, preserving the
// FIFO order of the rest.
func (k *Kernel) dequeue(p, i int) {
	q := k.runq[p]
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	k.runq[p] = q[:len(q)-1]
	if len(q) == 1 {
		k.readyMask &^= 1 << p
	}
}

// pickNext dequeues the highest-priority eligible thread. In the IDLE
// state only communication threads are eligible (paper fig. 3: the idle
// thread, channel thread and systemc thread keep running; everything else
// is frozen).
func (k *Kernel) pickNext() *Thread {
	for m := k.readyMask; m != 0; m &= m - 1 {
		p := bits.TrailingZeros32(m)
		for i, t := range k.runq[p] {
			if k.state == StateIdle && !t.comm {
				continue
			}
			k.dequeue(p, i)
			return t
		}
	}
	return nil
}

// advanceCycles moves virtual time forward by n cycles, firing the timer
// interrupt path at every HW-tick boundary crossed. Cycles advance only
// here and in skipTicks, the idle path that counts whole quiet ticks
// without the timer path.
func (k *Kernel) advanceCycles(n uint64, account *uint64) {
	for n > 0 {
		step := min(n, k.toTick)
		k.cycles += step
		k.toTick -= step
		if account != nil {
			*account += step
		}
		n -= step
		if k.toTick == 0 {
			k.toTick = k.cfg.CyclesPerTick
			k.timerTick()
		}
	}
}

// AlarmAfter schedules fn to run in timer context after n SW ticks; the
// public form used by board services and tests.
func (k *Kernel) AlarmAfter(n uint64, fn func()) {
	k.alarms.Schedule(sim.Time(k.swTick+n), fn)
}

// timerTick is the hardware timer interrupt service path: it increments
// the HW tick, ticks the on-board devices, and every HWTicksPerSWTick
// ticks performs the SW-tick work (alarm expiry, timeslice accounting).
func (k *Kernel) timerTick() {
	k.hwTick++
	k.stats.TimerTicks++
	for i := range k.devices {
		k.devices[i].Tick(k.hwTick)
	}
	if k.hwTick%k.cfg.HWTicksPerSWTick != 0 {
		return
	}
	k.swTick++
	k.stats.SWTicks++
	for k.alarms.NextTime() <= sim.Time(k.swTick) {
		_, fn, _ := k.alarms.Pop()
		fn() // timer-ISR context: may ready threads, must not block
	}
	if k.cfg.TimesliceTicks > 0 && k.current != nil {
		if k.current.slice > 0 {
			k.current.slice--
		}
		if k.current.slice == 0 {
			k.current.slice = k.cfg.TimesliceTicks
			// Round-robin only matters if a peer of equal priority waits.
			if len(k.runq[k.current.prio]) > 0 {
				k.needResched = true
			}
		}
	}
}

// interruptsPending reports whether an enabled IRQ awaits dispatch.
func (k *Kernel) interruptsPending() bool { return k.irq.pendingEnabled() }

// dispatchInterrupts runs pending ISRs and then queued DSRs, charging
// their configured costs. It runs in scheduler context (never inside a
// thread body).
func (k *Kernel) dispatchInterrupts() {
	for {
		line := k.irq.nextPending()
		if line == nil {
			break
		}
		cost := k.budgetLeftClamp(k.cfg.ISRCost)
		k.advanceCycles(cost, &k.stats.KernelCycles)
		k.consumeBudget(cost)
		k.stats.ISRs++
		wantDSR := true
		if line.isr != nil {
			wantDSR = line.isr()
		}
		if wantDSR && line.dsr != nil {
			k.irq.queueDSR(line)
		}
	}
	for {
		line := k.irq.nextDSR()
		if line == nil {
			break
		}
		cost := k.budgetLeftClamp(k.cfg.DSRCost)
		k.advanceCycles(cost, &k.stats.KernelCycles)
		k.consumeBudget(cost)
		k.stats.DSRs++
		line.dsr()
	}
}

// budgetLeftClamp limits a kernel-path charge to the remaining quantum
// budget (kernel paths may not overdraw the grant).
func (k *Kernel) budgetLeftClamp(want uint64) uint64 { return min(want, k.budgetLeft) }

func (k *Kernel) consumeBudget(want uint64) {
	k.budgetLeft -= min(want, k.budgetLeft)
}

// Advance runs the board for `cycles` CPU cycles of virtual time — one
// granted quantum. It performs the IDLE→NORMAL transition (restoring the
// preempted thread's saved timeslice), schedules threads until the budget
// is exhausted, then returns to IDLE (saving the context of the thread in
// execution), exactly mirroring the state machine of the paper's figure 4.
func (k *Kernel) Advance(cycles uint64) {
	k.started = true
	k.budgetLeft = cycles
	k.enterNormal()
	for {
		// Interrupts first: device events unblock their service threads.
		k.dispatchInterrupts()
		if k.budgetLeft == 0 {
			break
		}
		t := k.pickNext()
		if t == nil {
			// Nothing runnable: count the ticks in which nothing can
			// happen, then burn idle time to the next tick boundary (the
			// timer may expire an alarm or a device may act) or to the
			// end of the budget.
			if n := k.idleTicks(); n > 0 {
				k.skipTicks(n)
			}
			step := min(k.toTick, k.budgetLeft)
			k.advanceCycles(step, &k.stats.IdleCycles)
			k.consumeBudget(step)
			continue
		}
		k.runThread(t)
	}
	k.enterIdle()
}

// runThread resumes one thread until it yields back to the scheduler.
func (k *Kernel) runThread(t *Thread) {
	if k.lastRun != t && k.lastRun != nil {
		k.advanceCycles(k.budgetLeftClamp(k.cfg.CtxSwitchCost), &k.stats.KernelCycles)
		k.consumeBudget(k.cfg.CtxSwitchCost)
		k.stats.ContextSwitches++
	}
	k.lastRun = t
	k.current = t
	t.state = ThreadRunning
	before := k.cycles
	st := t.coro.Resume()
	k.current = nil
	switch st {
	case sim.CoroFinished, sim.CoroKilled:
		t.state = ThreadExited
		t.exitWq.wakeAll(k)
	default:
		if t.state == ThreadExited {
			// ThreadCtx.Exit: unwind the parked coroutine so its
			// goroutine is reclaimed.
			t.coro.Kill()
			break
		}
		// The thread set its own state (Ready/Blocked/Sleeping) before
		// yielding; re-enqueue if it is still ready.
		if t.state == ThreadRunning {
			t.state = ThreadReady
		}
		if t.state == ThreadReady {
			k.ready(t)
		}
	}
	if k.cycles == before && t.state == ThreadReady {
		k.spinning++
		if k.spinning > 100000 {
			panic(fmt.Sprintf("rtos: thread %q yields without consuming time (runaway loop?)", t.name))
		}
	} else {
		k.spinning = 0
	}
}

// enterNormal performs the IDLE→NORMAL switch: clear the freeze flag,
// invoke the scheduler, resume the suspended thread and restore its
// context — in particular the value of its timeslice (paper §5.3).
func (k *Kernel) enterNormal() {
	if k.state == StateNormal {
		return
	}
	k.state = StateNormal
	k.stats.StateSwitches++
	if k.savedThread != nil {
		k.savedThread.slice = k.savedSlice
		k.savedThread = nil
	}
	cost := k.budgetLeftClamp(k.cfg.IdleSwitchCost)
	k.advanceCycles(cost, &k.stats.KernelCycles)
	k.consumeBudget(cost)
}

// enterIdle performs the NORMAL→IDLE switch: set the flag, signal the need
// for rescheduling, save the context (timeslice) of the thread currently
// in execution (paper §5.3), and activate only idle-eligible threads.
func (k *Kernel) enterIdle() {
	if k.state == StateIdle {
		return
	}
	k.state = StateIdle
	k.stats.StateSwitches++
	// The thread most recently in execution has its slice preserved.
	if k.lastRun != nil && k.lastRun.state != ThreadExited {
		k.savedThread = k.lastRun
		k.savedSlice = k.lastRun.slice
	}
}

// RunIdleComm lets communication threads execute while the OS is frozen
// between quanta, without advancing board time beyond kernel costs. The
// paper keeps the channel/systemc threads alive during IDLE so clock and
// interrupt packets are not lost; in this implementation message reception
// is handled by the transport goroutines, so RunIdleComm exists for
// board-side services that need to poll in virtual idle (used by tests and
// the standalone board binary).
func (k *Kernel) RunIdleComm(maxResumes int) {
	for i := 0; i < maxResumes; i++ {
		t := k.pickNext()
		if t == nil {
			return
		}
		k.runThread(t)
	}
}

// DeadlockCheck reports an error when no thread can ever run again: all
// threads blocked or exited with no pending interrupt and no alarm.
func (k *Kernel) DeadlockCheck() error {
	if k.interruptsPending() || !k.alarms.Empty() {
		return nil
	}
	live := 0
	for _, t := range k.threads {
		switch t.state {
		case ThreadReady, ThreadRunning:
			return nil
		case ThreadBlocked, ThreadSleeping:
			live++
		}
	}
	if live > 0 {
		return fmt.Errorf("rtos: deadlock: %d thread(s) blocked with no wake source", live)
	}
	return nil
}

// Shutdown unwinds every thread that has not exited, reclaiming their
// goroutines. Call it once when the co-simulation finishes; the kernel
// must not be used afterwards.
func (k *Kernel) Shutdown() {
	for _, t := range k.threads {
		if t.state != ThreadExited {
			t.state = ThreadExited
			t.coro.Kill()
		}
	}
}
