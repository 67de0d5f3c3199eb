package rtos

import (
	"fmt"

	"repro/internal/sim"
)

// ThreadState is a thread's scheduling state.
type ThreadState int

const (
	// ThreadReady: on a run queue.
	ThreadReady ThreadState = iota
	// ThreadRunning: currently executing (at most one).
	ThreadRunning
	// ThreadBlocked: waiting on a synchronization primitive.
	ThreadBlocked
	// ThreadSleeping: waiting for an alarm.
	ThreadSleeping
	// ThreadExited: body returned.
	ThreadExited
)

// String implements fmt.Stringer.
func (s ThreadState) String() string {
	switch s {
	case ThreadReady:
		return "ready"
	case ThreadRunning:
		return "running"
	case ThreadBlocked:
		return "blocked"
	case ThreadSleeping:
		return "sleeping"
	case ThreadExited:
		return "exited"
	default:
		return fmt.Sprintf("ThreadState(%d)", int(s))
	}
}

// Thread is one kernel thread.
type Thread struct {
	k     *Kernel
	name  string
	prio  int
	comm  bool // communication thread: may run in the IDLE state
	coro  *sim.Coroutine
	state ThreadState
	slice uint64 // remaining timeslice, in SW ticks

	cyclesUsed uint64
	exitWq     waitQueue // threads joined on this one
}

// ThreadOpt configures thread creation.
type ThreadOpt func(*Thread)

// Comm marks the thread as a communication thread, allowed to run while
// the OS is in the IDLE state (the paper's channel/systemc threads).
func Comm() ThreadOpt { return func(t *Thread) { t.comm = true } }

// CreateThread registers a thread at the given priority (0 = highest,
// NumPriorities-1 = lowest). The body receives a ThreadCtx through which
// all time consumption and blocking happens. The thread starts ready; it
// first runs inside a later Advance.
func (k *Kernel) CreateThread(name string, prio int, body func(*ThreadCtx), opts ...ThreadOpt) *Thread {
	if prio < 0 || prio >= NumPriorities {
		panic(fmt.Sprintf("rtos: thread %q priority %d out of range", name, prio))
	}
	if k.started {
		panic(fmt.Sprintf("rtos: CreateThread(%q) after first Advance", name))
	}
	t := &Thread{k: k, name: name, prio: prio, slice: k.cfg.TimesliceTicks}
	if t.slice == 0 {
		t.slice = ^uint64(0) // timeslicing disabled
	}
	for _, o := range opts {
		o(t)
	}
	ctx := &ThreadCtx{t: t}
	t.coro = sim.NewCoroutine(name, func(*sim.Coroutine) { body(ctx) })
	k.threads = append(k.threads, t)
	k.ready(t)
	return t
}

// Name returns the thread name.
func (t *Thread) Name() string { return t.name }

// Priority returns the thread priority.
func (t *Thread) Priority() int { return t.prio }

// State returns the scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// CyclesUsed returns the CPU cycles charged to this thread.
func (t *Thread) CyclesUsed() uint64 { return t.cyclesUsed }

// ThreadCtx is handed to thread bodies; every kernel service a thread uses
// goes through it. Its methods must only be called from within the owning
// thread's body.
type ThreadCtx struct {
	t *Thread
}

// Kernel returns the owning kernel (for time queries).
func (c *ThreadCtx) Kernel() *Kernel { return c.t.k }

// Thread returns the underlying thread.
func (c *ThreadCtx) Thread() *Thread { return c.t }

// yield suspends the thread body, returning control to the scheduler. The
// thread must have set its state (and enqueued itself on a wait structure,
// if blocking) first.
func (c *ThreadCtx) yield() {
	c.t.coro.Yield()
}

// Charge consumes n CPU cycles of computation. The charge is interleaved
// with timer ticks, interrupt dispatch and preemption at tick-boundary
// granularity; if the granted quantum ends mid-charge the thread is frozen
// and transparently resumed in the next quantum, continuing the remainder.
func (c *ThreadCtx) Charge(n uint64) {
	t := c.t
	k := t.k
	for n > 0 {
		if k.budgetLeft == 0 {
			// Quantum exhausted: stay ready, freeze here; Advance returns
			// and the next grant resumes this loop.
			t.state = ThreadReady
			c.yield()
			continue
		}
		step := min(n, k.toTick, k.budgetLeft)
		k.advanceCycles(step, &k.stats.BusyCycles)
		k.consumeBudget(step)
		t.cyclesUsed += step
		n -= step
		if k.needResched {
			k.needResched = false
			t.state = ThreadReady
			c.yield()
			continue
		}
		if k.interruptsPending() {
			// Let the scheduler dispatch the ISR; we stay ready and are
			// resumed afterwards (possibly after a higher-priority thread).
			t.state = ThreadReady
			c.yield()
		}
	}
}

// Yield voluntarily gives up the CPU while remaining ready.
func (c *ThreadCtx) Yield() {
	c.t.state = ThreadReady
	c.yield()
}

// Exit terminates the thread immediately (its body never resumes) and
// wakes any joiners.
func (c *ThreadCtx) Exit() {
	c.t.state = ThreadExited
	c.t.exitWq.wakeAll(c.t.k)
	c.t.coro.Yield() // the scheduler observes Exited and drops the thread
	panic("rtos: exited thread resumed")
}

// Join blocks until the target thread exits. Joining an already-exited
// thread returns immediately; joining yourself panics.
func (c *ThreadCtx) Join(target *Thread) {
	if target == c.t {
		panic(fmt.Sprintf("rtos: thread %q joining itself", c.t.name))
	}
	for target.state != ThreadExited {
		c.block(&target.exitWq)
	}
}

// SetPriority changes a thread's priority. If the thread is currently on
// a run queue it is re-queued at the new level; the change takes effect at
// the next scheduling decision (eCos cyg_thread_set_priority semantics,
// without priority inheritance).
func (k *Kernel) SetPriority(t *Thread, prio int) {
	if prio < 0 || prio >= NumPriorities {
		panic(fmt.Sprintf("rtos: SetPriority(%q, %d) out of range", t.name, prio))
	}
	if t.prio == prio {
		return
	}
	// Re-queue at the tail of the new level if enqueued.
	for i, x := range k.runq[t.prio] {
		if x == t {
			k.dequeue(t.prio, i)
			t.prio = prio
			k.enqueue(t)
			return
		}
	}
	t.prio = prio
}

// Sleep blocks the thread for n SW ticks.
func (c *ThreadCtx) Sleep(n uint64) {
	if n == 0 {
		c.Yield()
		return
	}
	t := c.t
	k := t.k
	t.state = ThreadSleeping
	k.alarms.Schedule(sim.Time(k.swTick+n), func() {
		if t.state == ThreadSleeping {
			k.ready(t)
		}
	})
	c.yield()
}

// block parks the thread on a wait queue until woken.
func (c *ThreadCtx) block(q *waitQueue) {
	c.t.state = ThreadBlocked
	q.enqueue(c.t)
	c.yield()
}

// blockTimeout parks the thread on q until it is woken or the SW tick
// reaches deadline; reports true if woken by the queue, false on timeout.
// A wake cancels the alarm, so it cannot fire into a later wait.
func (c *ThreadCtx) blockTimeout(q *waitQueue, deadline uint64) bool {
	t := c.t
	k := t.k
	if deadline <= k.swTick {
		return false
	}
	t.state = ThreadBlocked
	q.enqueue(t)
	timedOut := false
	h := k.alarms.Schedule(sim.Time(deadline), func() {
		if t.state == ThreadBlocked && q.remove(t) {
			timedOut = true
			k.ready(t)
		}
	})
	c.yield()
	k.alarms.Cancel(h)
	return !timedOut
}

// waitQueue is a FIFO of blocked threads.
type waitQueue struct {
	q []*Thread
}

func (w *waitQueue) enqueue(t *Thread) { w.q = append(w.q, t) }

func (w *waitQueue) remove(t *Thread) bool {
	for i, x := range w.q {
		if x == t {
			w.q = append(w.q[:i], w.q[i+1:]...)
			return true
		}
	}
	return false
}

// wakeOne readies the oldest waiter; returns false if the queue was empty.
func (w *waitQueue) wakeOne(k *Kernel) bool {
	for len(w.q) > 0 {
		t := w.q[0]
		w.q = w.q[1:]
		if t.state == ThreadBlocked {
			k.ready(t)
			return true
		}
	}
	return false
}

// wakeAll readies every waiter.
func (w *waitQueue) wakeAll(k *Kernel) {
	for w.wakeOne(k) {
	}
}

func (w *waitQueue) len() int { return len(w.q) }
