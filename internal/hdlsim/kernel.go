// Package hdlsim implements a SystemC-like discrete-event simulation kernel
// for hardware models: evaluate/update signal semantics with delta cycles,
// method and thread processes, clocks, hierarchical modules with typed
// ports, and — following Fummi et al. (DATE 2005) — the co-simulation
// extensions driver_in / driver_out / driver_process / driver_simulate that
// connect a model under simulation to software running on a (virtual)
// embedded board.
//
// The kernel is single-threaded: all processes execute on the goroutine
// that calls Run/RunCycles/Driver.Advance. Thread processes are backed by
// sim.Coroutine, so exactly one process body runs at any instant and
// simulations are fully deterministic.
package hdlsim

import (
	"fmt"

	"repro/internal/sim"
)

// ProcessKind distinguishes the two SystemC process styles.
type ProcessKind int

const (
	// MethodProcess runs to completion each time it is triggered
	// (SC_METHOD). It must not block.
	MethodProcess ProcessKind = iota
	// ThreadProcess has its own control flow and suspends with Wait*
	// (SC_THREAD).
	ThreadProcess
)

// Process is one simulation process registered with a Simulator.
type Process struct {
	sim  *Simulator
	name string
	kind ProcessKind

	fn   func()         // method body
	coro *sim.Coroutine // thread body

	static []*Event // static sensitivity (methods only)

	// Dynamic waiting state (threads only).
	waitEvents    []*Event
	waitTimeout   sim.Handle
	timedOut      bool
	lastWakeEvent *Event

	queued      bool // already in the current runnable set
	terminated  bool
	noInitCall  bool // skip the initialization run
	triggerRuns uint64
}

// Name returns the hierarchical process name.
func (p *Process) Name() string { return p.name }

// Terminated reports whether a thread body has returned.
func (p *Process) Terminated() bool { return p.terminated }

// Runs returns how many times the process has been executed/resumed;
// useful in tests and kernel statistics.
func (p *Process) Runs() uint64 { return p.triggerRuns }

// DontInitialize suppresses the initialization run of the process, like
// SystemC's dont_initialize(). It must be called before Elaborate.
func (p *Process) DontInitialize() *Process {
	p.noInitCall = true
	return p
}

// updater is anything with deferred update semantics (signals).
type updater interface{ update(now sim.Time) }

// Stats aggregates kernel activity counters. A clock edge committed in
// place (see advanceToNext) bumps them exactly as the full delta path
// would, so the counters are identical on both paths.
type Stats struct {
	Deltas        uint64 // delta cycles executed
	TimeSteps     uint64 // distinct simulated instants visited
	ProcessRuns   uint64 // process activations
	SignalUpdates uint64 // committed signal updates
	EventTriggers uint64 // event firings
}

// Simulator is the simulation kernel: it owns simulated time, the clocks,
// the timed event queue, the delta-cycle machinery, and all registered
// processes, signals and events.
type Simulator struct {
	name    string
	now     sim.Time
	timed   *sim.Queue // NotifyDelay and wait timeouts; clock edges are kept on the clocks
	edgeSeq uint64     // orders clock edges due at the same instant

	runnable      []*Process
	updates       []updater
	updatesSpare  []updater // recycled backing array for the update phase
	deltaNotified []*Event
	notifiedSpare []*Event
	wokenSpare    []*Process // recycled scratch for Event.trigger's woken list

	processes []*Process
	signals   []namedSignal
	clocks    []*Clock

	elaborated bool
	running    bool
	stopped    bool
	stats      Stats

	// MaxDeltasPerInstant aborts the simulation when one instant runs
	// more than this many delta cycles — the signature of a combinational
	// loop (two processes re-triggering each other forever). 0 means the
	// default of 100000.
	MaxDeltasPerInstant uint64
	deltaOverflow       error

	// Driver (co-simulation) state; see driver.go.
	driverIns  []*DriverIn
	driverOuts []*DriverOut
	intWatches []*intWatch
	intRaised  []uint8
}

type namedSignal interface {
	SignalName() string
	traceValue() string
}

// NewSimulator creates an empty kernel.
func NewSimulator(name string) *Simulator {
	return &Simulator{
		name:  name,
		timed: sim.NewQueue(),
	}
}

// Name returns the simulator instance name.
func (s *Simulator) Name() string { return s.name }

// Now returns the current simulated time.
func (s *Simulator) Now() sim.Time { return s.now }

// Stats returns a snapshot of kernel activity counters.
func (s *Simulator) Stats() Stats { return s.stats }

// Stopped reports whether Stop was called.
func (s *Simulator) Stopped() bool { return s.stopped }

// Stop ends the simulation at the current instant: Run and RunCycles return
// after the current delta completes.
func (s *Simulator) Stop() { s.stopped = true }

// Shutdown kills every unfinished thread process, releasing the goroutine
// behind its coroutine (deferred functions in the body run). It is the
// owner's last call on a kernel, mirroring rtos.Kernel.Shutdown; calling
// it again is a no-op.
func (s *Simulator) Shutdown() {
	for _, p := range s.processes {
		if p.kind == ThreadProcess && !p.terminated {
			p.terminated = true
			p.coro.Kill()
		}
	}
}

// Method registers a run-to-completion process statically sensitive to the
// given events. The body runs once at initialization (unless
// DontInitialize) and once per delta in which any sensitivity event fires.
func (s *Simulator) Method(name string, fn func(), sensitivity ...*Event) *Process {
	s.mustNotBeElaborated("Method", name)
	p := &Process{sim: s, name: name, kind: MethodProcess, fn: fn, static: sensitivity}
	for _, e := range sensitivity {
		e.static = append(e.static, p)
	}
	s.processes = append(s.processes, p)
	return p
}

// Thread registers a thread-style process. The body receives a Ctx whose
// Wait* methods suspend the thread. The body runs at initialization until
// its first Wait.
func (s *Simulator) Thread(name string, body func(*Ctx)) *Process {
	s.mustNotBeElaborated("Thread", name)
	p := &Process{sim: s, name: name, kind: ThreadProcess}
	ctx := &Ctx{p: p}
	p.coro = sim.NewCoroutine(name, func(*sim.Coroutine) { body(ctx) })
	s.processes = append(s.processes, p)
	return p
}

func (s *Simulator) mustNotBeElaborated(what, name string) {
	if s.elaborated {
		panic(fmt.Sprintf("hdlsim: %s(%q) after elaboration", what, name))
	}
}

// Elaborate finalizes the model: it validates the design and schedules the
// initialization runs. It is called implicitly by Run/RunCycles/
// NewDriver if the caller did not.
func (s *Simulator) Elaborate() error {
	if s.elaborated {
		return nil
	}
	seen := make(map[string]bool, len(s.processes))
	for _, p := range s.processes {
		if seen[p.name] {
			return fmt.Errorf("hdlsim: duplicate process name %q", p.name)
		}
		seen[p.name] = true
	}
	for _, p := range s.processes {
		if !p.noInitCall {
			s.makeRunnable(p)
		}
	}
	s.elaborated = true
	return nil
}

func (s *Simulator) makeRunnable(p *Process) {
	if p.queued || p.terminated {
		return
	}
	p.queued = true
	s.runnable = append(s.runnable, p)
}

// requestUpdate queues a signal for the update phase of the current delta.
// Callers (signals) guarantee they request at most once per delta (their
// hasNext flag), so no dedup is needed here.
func (s *Simulator) requestUpdate(u updater) {
	s.updates = append(s.updates, u)
}

func (s *Simulator) queueDeltaNotify(e *Event) {
	if e.deltaPending {
		return
	}
	e.deltaPending = true
	s.deltaNotified = append(s.deltaNotified, e)
}

// execute runs one process activation.
func (s *Simulator) execute(p *Process) {
	s.stats.ProcessRuns++
	p.triggerRuns++
	switch p.kind {
	case MethodProcess:
		p.fn()
	case ThreadProcess:
		if p.coro.Resume() == sim.CoroFinished {
			p.terminated = true
		}
	}
}

// deltaLoop runs evaluation/update/delta-notification phases until no
// process is runnable at the current instant. spent is the number of
// deltas the instant already ran outside the loop (a clock edge committed
// in place); they count toward MaxDeltasPerInstant.
func (s *Simulator) deltaLoop(spent uint64) {
	limit := s.MaxDeltasPerInstant
	if limit == 0 {
		limit = 100000
	}
	deltasHere := spent
	for len(s.runnable) > 0 || len(s.updates) > 0 || len(s.deltaNotified) > 0 {
		if s.stopped {
			return
		}
		deltasHere++
		if deltasHere > limit {
			s.deltaOverflow = fmt.Errorf(
				"hdlsim: %d delta cycles at %v without settling (combinational loop?)", deltasHere-1, s.now)
			s.stopped = true
			return
		}
		s.stats.Deltas++
		// Evaluation phase. Immediate notifications may append to
		// s.runnable while we iterate, so index explicitly.
		for i := 0; i < len(s.runnable); i++ {
			p := s.runnable[i]
			p.queued = false
			s.execute(p)
		}
		s.runnable = s.runnable[:0]
		// Update phase: commit signal writes. Changed signals queue
		// delta notifications.
		updates := s.updates
		s.updates = s.updatesSpare[:0]
		for _, u := range updates {
			u.update(s.now)
			s.stats.SignalUpdates++
		}
		s.updatesSpare = updates[:0]
		// Delta notification phase: fire events, making their waiters
		// runnable in the next delta.
		notified := s.deltaNotified
		s.deltaNotified = s.notifiedSpare[:0]
		for _, e := range notified {
			if !e.deltaPending { // cancelled after being queued
				continue
			}
			e.deltaPending = false
			e.trigger()
		}
		s.notifiedSpare = notified[:0]
	}
}

// advanceToNext moves to the earliest instant holding a clock edge or a
// timed callback, fires the edges and callbacks due there and returns
// true with the number of deltas it ran there (0 or 1); it returns false
// when neither exists before limit.
//
// Edges fire first, in edge-sequence order, then the heap drains. An edge
// only writes its clock signal, which queues an update; a callback only
// makes processes runnable or cancels timeouts. So within one instant the
// order between edges and callbacks cannot be observed.
//
// A quiet edge — the only edge due, the heap's head strictly later, and
// nothing runnable or pending — is committed in place by Clock.commit,
// which is the update delta the full path would run next, and counts as
// that instant's one delta spent.
func (s *Simulator) advanceToNext(limit sim.Time) (spent uint64, ok bool) {
	heapAt := s.timed.NextTime()
	next, alone := heapAt, false
	var due *Clock // the earliest-sequence edge at next
	for _, c := range s.clocks {
		switch {
		case c.nextAt < next || c.nextAt == next && due == nil:
			next, due, alone = c.nextAt, c, true
		case c.nextAt == next:
			alone = false
			if c.nextSeq < due.nextSeq {
				due = c
			}
		}
	}
	if next == sim.MaxTime || next > limit {
		return 0, false
	}
	s.now = next
	s.stats.TimeSteps++
	if alone && heapAt > next && len(s.runnable) == 0 && len(s.updates) == 0 && len(s.deltaNotified) == 0 {
		due.commit()
		return 1, true
	}
	for due != nil {
		due.fire()
		due = nil
		for _, c := range s.clocks {
			if c.nextAt == next && (due == nil || c.nextSeq < due.nextSeq) {
				due = c
			}
		}
	}
	// Callbacks may schedule further events at this same instant; they
	// pop here too, after everything already queued for it.
	for {
		fn, ok := s.timed.PopAt(next)
		if !ok {
			break
		}
		fn()
	}
	return 0, true
}

// Run advances simulation by d of simulated time (or until Stop, or until
// no further activity exists). It elaborates on first use.
func (s *Simulator) Run(d sim.Time) error {
	if err := s.Elaborate(); err != nil {
		return err
	}
	limit := s.now + d
	if d == sim.MaxTime || limit < s.now { // overflow ⇒ run forever
		limit = sim.MaxTime
	}
	s.deltaLoop(0) // pending initialization or leftover activity
	for !s.stopped {
		spent, ok := s.advanceToNext(limit)
		if !ok {
			break
		}
		s.deltaLoop(spent)
	}
	if s.deltaOverflow != nil {
		return s.deltaOverflow
	}
	if !s.stopped && limit != sim.MaxTime && s.now < limit {
		s.now = limit
	}
	return nil
}

// RunCycles advances the simulation by n full cycles of clk.
func (s *Simulator) RunCycles(clk *Clock, n uint64) error {
	if err := s.Elaborate(); err != nil {
		return err
	}
	for i := uint64(0); i < n && !s.stopped; i++ {
		if err := s.stepCycle(clk); err != nil {
			return err
		}
	}
	return s.deltaOverflow
}

// stepCycle runs the elaborated design until clk's next rising edge has
// settled (or the simulation stops).
func (s *Simulator) stepCycle(clk *Clock) error {
	target := clk.cycles + 1
	for clk.cycles < target && !s.stopped {
		spent, ok := s.advanceToNext(sim.MaxTime)
		if !ok {
			return fmt.Errorf("hdlsim: event starvation at %v waiting for clock %q", s.now, clk.Name())
		}
		s.deltaLoop(spent)
	}
	return s.deltaOverflow
}
