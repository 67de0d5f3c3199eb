package hdlsim

import (
	"math"

	"repro/internal/sim"
)

// Event is a synchronization primitive equivalent to sc_event. Method
// processes can be statically sensitive to it; thread processes wait on it
// dynamically. An event holds at most one pending notification: immediate
// beats delta, delta beats timed, and of two timed notifications the
// earlier wins (SystemC rule 5.10.8, simplified).
type Event struct {
	sim  *Simulator
	name string

	static []*Process  // statically sensitive methods
	dyn    []dynWaiter // threads currently waiting dynamically

	// fired counts the triggers seen while dyn is non-empty, and due is a
	// lower bound on the earliest dynWaiter.at, so a trigger that wakes no
	// waiter skips the walk (see trigger).
	fired uint64
	due   uint64

	deltaPending bool
	timedHandle  sim.Handle
	timedAt      sim.Time
	timedFn      sim.EventFunc // reusable timed-fire callback; built on first NotifyDelay
}

// NewEvent creates a named event owned by the simulator.
func (s *Simulator) NewEvent(name string) *Event {
	return &Event{sim: s, name: name}
}

// Name returns the event's diagnostic name.
func (e *Event) Name() string { return e.name }

// Notify schedules a delta notification: all waiters become runnable in the
// next delta cycle of the current instant.
func (e *Event) Notify() {
	e.cancelTimed()
	e.sim.queueDeltaNotify(e)
}

// notifyUpdate is Notify for a signal committing a change in the update
// phase. An event nobody listens to is counted as triggered at once
// instead of being queued for the delta-notification phase: no process
// runs between the two phases, so no listener can appear before it would
// have fired. Process-side notifications must use Notify.
func (e *Event) notifyUpdate() {
	e.cancelTimed()
	if !e.deltaPending && len(e.static) == 0 && len(e.dyn) == 0 {
		e.sim.stats.EventTriggers++
		return
	}
	e.sim.queueDeltaNotify(e)
}

// fireUpdate is notifyUpdate followed at once by the delta-notification
// phase, for a commit no other notification shares a delta with (see
// Clock.commit): a pending timed notification is cancelled, and the event
// fires, which for an event nobody listens to only counts the trigger.
func (e *Event) fireUpdate() {
	e.cancelTimed()
	if len(e.static) == 0 && len(e.dyn) == 0 {
		e.sim.stats.EventTriggers++
		return
	}
	e.trigger()
}

// silent reports whether firing the event now would only count the
// trigger: it has no listener and no pending timed notification to cancel.
func (e *Event) silent() bool {
	return len(e.static) == 0 && len(e.dyn) == 0 && !e.timedHandle.Valid()
}

// NotifyImmediate triggers the event within the current evaluation phase:
// waiters run in the *same* delta. Use sparingly; like SystemC's
// notify() with no arguments it can hide nondeterminism in careless models.
func (e *Event) NotifyImmediate() {
	e.cancelTimed()
	e.trigger()
}

// NotifyDelay schedules the event to fire after d of simulated time. If a
// timed notification is already pending, the earlier of the two wins. A
// pending delta notification always wins over a timed one.
func (e *Event) NotifyDelay(d sim.Time) {
	if e.deltaPending {
		return
	}
	at := e.sim.now + d
	if e.timedHandle.Valid() {
		if e.timedAt <= at {
			return
		}
		e.sim.timed.Cancel(e.timedHandle)
	}
	e.timedAt = at
	if e.timedFn == nil {
		e.timedFn = func() {
			e.timedHandle = sim.Handle{}
			e.trigger()
		}
	}
	e.timedHandle = e.sim.timed.Schedule(at, e.timedFn)
}

// Cancel removes any pending (delta or timed) notification.
func (e *Event) Cancel() {
	e.deltaPending = false // queueDeltaNotify entries check this flag lazily
	e.cancelTimed()
}

func (e *Event) cancelTimed() {
	if e.timedHandle.Valid() {
		e.sim.timed.Cancel(e.timedHandle)
		e.timedHandle = sim.Handle{}
	}
}

// dynWaiter is one dynamically waiting thread; at is the value of the
// event's fired counter at which it wakes, so a counting wait (WaitCycles)
// sleeps through at-fired-1 triggers without a coroutine round trip and
// without the event touching its entry on each of them.
type dynWaiter struct {
	p  *Process
	at uint64
}

// trigger fires the event now: statically sensitive methods and the
// dynamically waiting threads whose trigger number has come become
// runnable. While fired is below due no waiter is due, so only the
// static list is visited.
func (e *Event) trigger() {
	e.sim.stats.EventTriggers++
	for _, p := range e.static {
		e.sim.makeRunnable(p)
	}
	if len(e.dyn) == 0 {
		return
	}
	e.fired++
	if e.fired < e.due {
		return
	}
	kept := e.dyn[:0]
	// Borrow the simulator's scratch for the woken list; taking it (and
	// nil-ing the field) means a nested trigger falls back to a fresh
	// slice instead of clobbering ours.
	woken := e.sim.wokenSpare[:0]
	e.sim.wokenSpare = nil
	e.due = math.MaxUint64
	for _, w := range e.dyn {
		if w.at <= e.fired {
			woken = append(woken, w.p)
			continue
		}
		kept = append(kept, w)
		e.due = min(e.due, w.at)
	}
	e.dyn = kept
	for _, p := range woken {
		p.wakeFromWait(e)
	}
	for i := range woken {
		woken[i] = nil
	}
	e.sim.wokenSpare = woken[:0]
}

// addDynWaiter registers a thread blocked on this event until the count-th
// future trigger. fired only counts triggers while some thread waits, and
// this one waits from now on, so every trigger it sleeps through is
// counted.
func (e *Event) addDynWaiter(p *Process, count uint64) {
	at := e.fired + count
	if at < count { // a count near MaxUint64 sleeps for good
		at = math.MaxUint64
	}
	if len(e.dyn) == 0 || at < e.due {
		e.due = at
	}
	e.dyn = append(e.dyn, dynWaiter{p: p, at: at})
}

// removeDynWaiter drops p's entry. It leaves due as it is: a bound below
// every remaining at is still a lower bound, and the next walk raises it.
func (e *Event) removeDynWaiter(p *Process) {
	for i := range e.dyn {
		if e.dyn[i].p == p {
			e.dyn = append(e.dyn[:i], e.dyn[i+1:]...)
			return
		}
	}
}

// wakeFromWait clears the process's dynamic wait state and makes it
// runnable. cause is the event that fired (nil for a timeout).
func (p *Process) wakeFromWait(cause *Event) {
	for _, e := range p.waitEvents {
		if e != cause {
			e.removeDynWaiter(p)
		}
	}
	// Keep the backing array for the next wait: a thread in a loop of
	// waits would otherwise allocate it again on every one.
	clear(p.waitEvents)
	p.waitEvents = p.waitEvents[:0]
	if p.waitTimeout.Valid() {
		p.sim.timed.Cancel(p.waitTimeout)
		p.waitTimeout = sim.Handle{}
	}
	p.timedOut = cause == nil
	p.lastWakeEvent = cause
	p.sim.makeRunnable(p)
}
