package hdlsim

import (
	"fmt"

	"repro/internal/sim"
)

// Clock is a free-running symmetric clock built on a BitSignal, equivalent
// to sc_clock. The first rising edge occurs at time 0 (immediately after
// elaboration); edges alternate every half period.
//
// A clock keeps its next edge arithmetically instead of on the timed
// heap: the edge's time, the level it drives, and a sequence number drawn
// from the simulator's edge counter when the previous edge fired (for the
// first edge, when the clock was created). Edges
// due at one instant fire in sequence order, the order a heap keyed on
// (time, schedule sequence) would pop them in.
type Clock struct {
	sig    *BitSignal
	half   sim.Time
	cycles uint64 // completed rising edges

	nextAt   sim.Time
	nextHigh bool
	nextSeq  uint64
}

// NewClock creates a clock with the given full period. Period must be an
// even number of picoseconds ≥ 2 so both half-periods are representable.
// Its first edge, a rising one at time 0, is set here, so a clock must be
// created before elaboration.
func (s *Simulator) NewClock(name string, period sim.Time) *Clock {
	s.mustNotBeElaborated("NewClock", name)
	if period < 2 || period%2 != 0 {
		panic(fmt.Sprintf("hdlsim: clock %q period %v must be even and ≥ 2ps", name, period))
	}
	c := &Clock{sig: NewBitSignal(s, name), half: period / 2, nextHigh: true, nextSeq: s.edgeSeq}
	s.edgeSeq++
	s.clocks = append(s.clocks, c)
	return c
}

// fire drives the due edge onto the signal.
func (c *Clock) fire() { c.sig.Write(c.advance()) }

// commit drives the due edge and runs the update delta that would follow
// it in place: the write, the delta, the signal update, the value-changed
// and edge notifications and the tracers, with the same counts. It is
// only valid when the edge is alone at its instant and nothing else is
// runnable or pending, so that delta would hold this commit alone and
// its notification phase would fire just these events, in this order.
func (c *Clock) commit() {
	b, s := c.sig, c.sig.sim
	high := c.advance()
	b.writes++
	s.stats.Deltas++
	s.stats.SignalUpdates++
	if high == b.cur {
		return
	}
	b.cur = high
	if b.watched {
		s.watchedChanged = true
	}
	b.changed.fireUpdate()
	if high {
		b.pos.fireUpdate()
	} else {
		b.neg.fireUpdate()
	}
	for _, fn := range b.tracers {
		fn(s.now, high)
	}
}

// silent reports whether the due edge, when quiet, is also silent: its
// signal has no tracer and no interrupt watch, and its value-changed and
// edge events have no listener and no pending timed notification. commit
// would then change the level and move counters, nothing else.
func (c *Clock) silent() bool {
	b := c.sig
	edge := b.neg
	if c.nextHigh {
		edge = b.pos
	}
	return edge.silent() && b.changed.silent() && len(b.tracers) == 0 && !b.watched
}

// commitSilent commits a quiet, silent edge by the counters commit would
// move: the write, the delta, the signal update and, when the level
// changes, the two listener-free triggers.
func (c *Clock) commitSilent() {
	b, s := c.sig, c.sig.sim
	s.stats.Deltas++
	s.stats.SignalUpdates++
	b.writes++
	if high := c.advance(); high != b.cur {
		b.cur = high
		s.stats.EventTriggers += 2
	}
}

// advance moves the clock past its due edge, setting the following one,
// and returns the level the due edge drives.
func (c *Clock) advance() bool {
	s := c.sig.sim
	high := c.nextHigh
	if high {
		c.cycles++
	}
	c.nextAt += c.half
	c.nextHigh = !high
	c.nextSeq = s.edgeSeq
	s.edgeSeq++
	return high
}

// Name returns the clock signal name.
func (c *Clock) Name() string { return c.sig.name }

// Period returns the full clock period.
func (c *Clock) Period() sim.Time { return 2 * c.half }

// Cycles returns the number of rising edges produced so far.
func (c *Clock) Cycles() uint64 { return c.cycles }

// Signal returns the underlying bit signal (for port binding / tracing).
func (c *Clock) Signal() *BitSignal { return c.sig }

// Posedge returns the rising-edge event.
func (c *Clock) Posedge() *Event { return c.sig.Posedge() }

// Negedge returns the falling-edge event.
func (c *Clock) Negedge() *Event { return c.sig.Negedge() }

// Read returns the current clock level.
func (c *Clock) Read() bool { return c.sig.Read() }
