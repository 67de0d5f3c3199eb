package hdlsim

import (
	"fmt"

	"repro/internal/sim"
)

// Signal is a typed hardware signal with SystemC sc_signal semantics:
// writes during the evaluation phase are deferred to the update phase of
// the same delta cycle; reads always observe the last committed value; a
// committed change fires the signal's value-changed event so sensitive
// processes run in the next delta. Within one delta, the last write wins.
type Signal[T comparable] struct {
	sim     *Simulator
	name    string
	cur     T
	next    T
	hasNext bool
	changed *Event
	writes  uint64
	tracers []func(at sim.Time, v T)
}

// NewSignal creates a named signal with the zero value of T.
func NewSignal[T comparable](s *Simulator, name string) *Signal[T] {
	sig := &Signal[T]{sim: s, name: name}
	sig.changed = s.NewEvent(name + ".value_changed")
	s.signals = append(s.signals, sig)
	return sig
}

// NewSignalInit creates a signal with an explicit initial value.
func NewSignalInit[T comparable](s *Simulator, name string, init T) *Signal[T] {
	sig := NewSignal[T](s, name)
	sig.cur = init
	return sig
}

// SignalName returns the signal's hierarchical name.
func (sig *Signal[T]) SignalName() string { return sig.name }

// Read returns the current committed value. During evaluation it never
// observes same-delta writes.
func (sig *Signal[T]) Read() T { return sig.cur }

// Write requests that the signal take value v at the update phase of the
// current delta. Multiple writes in one delta: the last wins.
func (sig *Signal[T]) Write(v T) {
	sig.writes++
	sig.next = v
	if !sig.hasNext {
		sig.hasNext = true
		sig.sim.requestUpdate(sig)
	}
}

// Changed returns the value-changed event (fires in the delta after a
// commit that altered the value).
func (sig *Signal[T]) Changed() *Event { return sig.changed }

// Writes returns the number of Write calls, for kernel statistics.
func (sig *Signal[T]) Writes() uint64 { return sig.writes }

// Trace registers a callback invoked at every committed value change
// (used by the VCD writer).
func (sig *Signal[T]) Trace(fn func(at sim.Time, v T)) {
	sig.tracers = append(sig.tracers, fn)
}

func (sig *Signal[T]) update(now sim.Time) {
	if !sig.hasNext {
		return
	}
	sig.hasNext = false
	if sig.next == sig.cur {
		return
	}
	sig.cur = sig.next
	sig.changed.notifyUpdate()
	for _, fn := range sig.tracers {
		fn(now, sig.cur)
	}
}

func (sig *Signal[T]) traceValue() string { return fmt.Sprint(sig.cur) }

// BitSignal is a boolean signal with edge events, the moral equivalent of
// sc_signal<bool> plus posedge_event()/negedge_event().
type BitSignal struct {
	sim     *Simulator
	name    string
	cur     bool
	next    bool
	hasNext bool
	changed *Event
	pos     *Event
	neg     *Event
	tracers []func(at sim.Time, v bool)
	writes  uint64
}

// NewBitSignal creates a boolean signal initialized to false.
func NewBitSignal(s *Simulator, name string) *BitSignal {
	b := &BitSignal{
		sim:     s,
		name:    name,
		changed: s.NewEvent(name + ".value_changed"),
		pos:     s.NewEvent(name + ".posedge"),
		neg:     s.NewEvent(name + ".negedge"),
	}
	s.signals = append(s.signals, b)
	return b
}

// SignalName returns the signal's hierarchical name.
func (b *BitSignal) SignalName() string { return b.name }

// Read returns the committed value.
func (b *BitSignal) Read() bool { return b.cur }

// Write requests the value for the update phase (last write wins).
func (b *BitSignal) Write(v bool) {
	b.writes++
	b.next = v
	if !b.hasNext {
		b.hasNext = true
		b.sim.requestUpdate(b)
	}
}

// Changed returns the value-changed event.
func (b *BitSignal) Changed() *Event { return b.changed }

// Posedge returns the rising-edge event.
func (b *BitSignal) Posedge() *Event { return b.pos }

// Negedge returns the falling-edge event.
func (b *BitSignal) Negedge() *Event { return b.neg }

// Trace registers a value-change callback (VCD).
func (b *BitSignal) Trace(fn func(at sim.Time, v bool)) {
	b.tracers = append(b.tracers, fn)
}

func (b *BitSignal) update(now sim.Time) {
	if !b.hasNext {
		return
	}
	b.hasNext = false
	if b.next == b.cur {
		return
	}
	b.cur = b.next
	b.changed.notifyUpdate()
	if b.cur {
		b.pos.notifyUpdate()
	} else {
		b.neg.notifyUpdate()
	}
	for _, fn := range b.tracers {
		fn(now, b.cur)
	}
}

func (b *BitSignal) traceValue() string {
	if b.cur {
		return "1"
	}
	return "0"
}
