package cosim

import "fmt"

// SimTime is a point on a federation's shared virtual clock, measured in
// grant ticks — the same unit the wire protocol's MTClockGrant carries
// and the HDL simulator's cycle counter advances by. Time is absolute
// and monotonic within one federation run, starting at 0.
type SimTime uint64

// FedMsgKind discriminates the events federates exchange at quantum
// boundaries. The kinds mirror the wire protocol's DATA/INT traffic, so
// a ProcFederate can forward them byte-identically.
type FedMsgKind uint8

const (
	// FedWrite posts a register-block write into the destination's
	// address space (visible there from its next Step).
	FedWrite FedMsgKind = iota + 1
	// FedReadReq requests Count words from Addr; the destination answers
	// with a FedReadResp in a later exchange (split-phase).
	FedReadReq
	// FedReadResp completes an earlier FedReadReq.
	FedReadResp
	// FedInt raises interrupt line IRQ at the destination.
	FedInt
)

// String implements fmt.Stringer.
func (k FedMsgKind) String() string {
	switch k {
	case FedWrite:
		return "fed-write"
	case FedReadReq:
		return "fed-read-req"
	case FedReadResp:
		return "fed-read-resp"
	case FedInt:
		return "fed-int"
	default:
		return fmt.Sprintf("FedMsgKind(%d)", uint8(k))
	}
}

// FedMsg is one boundary-exchanged event between federates. Data kinds
// are routed by word address through the federation's link windows;
// FedInt is routed by interrupt line. Words follows the same ownership
// discipline as the wire protocol: the producer hands the slice over and
// must not retain it.
type FedMsg struct {
	Kind  FedMsgKind
	Addr  uint32   // word address (data kinds)
	Count uint32   // word count (FedReadReq)
	Words []uint32 // payload (FedWrite / FedReadResp)
	IRQ   uint8    // interrupt line (FedInt)
}

// Federate is one party of an N-way co-simulation: a simulation engine
// that can advance its local clock to a requested virtual time and
// exchange timestamped events with the rest of the federation at quantum
// boundaries. The three in-tree engines implement it — the HDL kernel
// (SimFederate), the virtual board (board.Federate), and an external
// process speaking the v3 wire protocol (ProcFederate) — and the
// hierarchical time manager (internal/cosim/federation) coordinates any
// mix of them under one conservative quantum clock.
//
// The contract mirrors FMI-style co-simulation units: all methods are
// called from the time manager's single goroutine, in a deterministic
// order, and a federate must never observe an event timestamped at or
// after a boundary before it has stepped up to that boundary.
type Federate interface {
	// Name identifies the federate in stats, metrics and errors.
	Name() string
	// Step advances the federate's local clock to the absolute virtual
	// time until and returns the time actually reached. reached < until
	// reports that the federate stopped early (end of workload); the
	// manager then winds the federation down at that time.
	Step(until SimTime) (reached SimTime, err error)
	// Exchange delivers inbound boundary events (visible from the next
	// Step) and returns the events this federate emitted since the
	// previous Exchange. Both directions may be empty; a nil input is a
	// pure collection call.
	Exchange(in []FedMsg) (out []FedMsg, err error)
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
// hdlsim.QuantumParty.Rendezvous), the ticks it must run before it
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
