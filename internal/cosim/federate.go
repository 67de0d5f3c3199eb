package cosim

import "repro/internal/hdlsim"

// SimTime is a point on a federation's shared virtual clock, measured in
// grant ticks — the same unit the wire protocol's MTClockGrant carries
// and the HDL simulator's cycle counter advances by. Time is absolute
// and monotonic within one federation run, starting at 0.
type SimTime uint64

// Federate is one party of an N-way co-simulation: a simulation engine
// that can advance its local clock to a requested virtual time and
// exchange events with the rest of the federation at quantum boundaries.
// The three in-tree engines implement it — the HDL kernel
// (SimFederate), the virtual board (*board.Board), and an external
// process speaking the v3 wire protocol (HWEndpoint) — and the
// hierarchical time manager (internal/cosim/federation) coordinates any
// mix of them under one conservative quantum clock, naming each party
// in its errors.
//
// The contract mirrors FMI-style co-simulation units: one value type,
// the kernel's driver-port message hdlsim.DataMsg, crosses every
// boundary; all methods are called from the time manager's single
// goroutine, in a deterministic order; and a federate must never observe
// an event timestamped at or after a boundary before it has stepped up
// to that boundary.
type Federate interface {
	// Step advances the federate's local clock to the absolute virtual
	// time until and returns the time actually reached. reached < until
	// reports that the federate stopped early (end of workload); the
	// manager then winds the federation down at that time.
	Step(until SimTime) (reached SimTime, err error)
	// Exchange delivers inbound boundary events (visible from the next
	// Step) and returns the events this federate emitted since the
	// previous Exchange. Both directions may be empty; a nil input is a
	// pure collection call. Data kinds are routed by word address,
	// hdlsim.DataInterrupt by line; Words ownership passes with the
	// event.
	Exchange(in []hdlsim.DataMsg) (out []hdlsim.DataMsg, err error)
	// Lookahead is the federate's conservative promise, in grant ticks:
	// no event will be emitted and nothing can become runnable locally
	// for at least this many ticks beyond its current time without
	// federation input. NoLookahead (0) promises nothing;
	// UnboundedLookahead means nothing is scheduled at all. The time
	// manager reads it only from granted parties.
	Lookahead() uint64
	// Done reports that the federate has finished its workload and no
	// longer needs virtual time.
	Done() bool
	// Finish terminates the federate at final time at, completing any
	// protocol shutdown handshake. It is called exactly once, after the
	// last Step/Exchange.
	Finish(at SimTime) error
}

// SplitStepper is an optional Federate capability: a federate whose Step
// blocks on an external party (e.g. a wire-protocol acknowledgement) can
// split the advance so the time manager overlaps independent federates
// in wall-clock time. BeginStep launches the advance (sends the grant);
// the following Step(until) with the same bound completes it (waits for
// the acknowledgement). The pair must be equivalent to a plain Step.
type SplitStepper interface {
	BeginStep(until SimTime) error
}

// LeadSink is an optional Federate capability of a granted party: before
// each rendezvous it receives the grant's lead (see
// federation.QuantumParty.Rendezvous), the ticks it must run before it
// applies the events delivered with the grant.
type LeadSink interface {
	SetGrantLead(ticks uint64)
}

// BoardClock is an optional Federate capability: a federate fronting a
// board-side kernel reports the board's local cycle and software tick
// from its most recent acknowledgement, so the manager can fold the
// slowest board time into its Stats.
type BoardClock interface {
	BoardTime() (cycle, swTick uint64)
}
