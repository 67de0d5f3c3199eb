package cosim

import "repro/internal/hdlsim"

// SimFederate adapts an hdlsim kernel to the Federate interface: the
// device engine of a federation. It drives the simulator with the
// per-cycle stepping core hdlsim.Driver, the kernel talking to an
// in-memory buffer — outbound DATA/INT traffic accumulates until the
// next Exchange, and inbound events delivered by Exchange become visible
// to the kernel at the first cycle of its next Step, exactly when an
// HWEndpoint releases a quantum boundary's traffic. The kernel's own
// DATA port rejects an event kind a device cannot take, failing that
// Step.
type SimFederate struct {
	s  *hdlsim.Simulator
	d  *hdlsim.Driver
	ep *fedBufEndpoint
}

// NewSimFederate elaborates the simulator and wraps it as a federate.
// One grant tick equals one HDL clock cycle.
func NewSimFederate(s *hdlsim.Simulator, clk *hdlsim.Clock) (*SimFederate, error) {
	ep := &fedBufEndpoint{}
	d, err := s.NewDriver(clk, ep)
	if err != nil {
		return nil, err
	}
	return &SimFederate{s: s, d: d, ep: ep}, nil
}

// Step implements Federate: it runs the kernel cycle by cycle up to
// until, stopping early if the simulation halts itself.
func (f *SimFederate) Step(until SimTime) (SimTime, error) {
	reached, _, err := f.d.Advance(uint64(until))
	return SimTime(reached), err
}

// Exchange implements Federate: inbound events land in the kernel's
// DATA-poll buffer (visible at the next cycle), and the DATA/INT traffic
// the kernel emitted since the last call is returned. The returned slice
// is reused by the next Exchange — route it before calling again.
func (f *SimFederate) Exchange(in []hdlsim.DataMsg) ([]hdlsim.DataMsg, error) {
	if len(in) == 0 && len(f.ep.out) == 0 {
		// Nothing to deliver or collect (most boundaries).
		return nil, nil
	}
	if f.ep.polled {
		// The kernel consumed the previous delivery synchronously inside
		// its Step, so the backing array is free to reuse.
		f.ep.inbox = f.ep.inbox[:0]
		f.ep.polled = false
	}
	f.ep.inbox = append(f.ep.inbox, in...)
	out := f.ep.out
	f.ep.out = f.ep.outFree[:0]
	f.ep.outFree = out[:0]
	return out, nil
}

// Lookahead implements Federate: a device kernel makes no promise. An
// eager party's lookahead is never read; a granted one pins its
// federation to plain stepping.
func (f *SimFederate) Lookahead() uint64 { return NoLookahead }

// Done implements Federate.
func (f *SimFederate) Done() bool { return f.d.Stopped() }

// Finish implements Federate; the kernel needs no shutdown handshake,
// but its unfinished threads are released.
func (f *SimFederate) Finish(at SimTime) error {
	f.s.Shutdown()
	return nil
}

// Stats returns the kernel's driver-loop counters; the schedule counters
// (SyncEvents, SyncsElided, LastBoardCy) are the time manager's Stats.
func (f *SimFederate) Stats() hdlsim.DriverStats { return f.d.Stats() }

// fedBufEndpoint is the in-memory hdlsim.DriverEndpoint behind a
// SimFederate: PollData releases the inbox once per delivery (matching
// HWEndpoint's once-per-quantum visibility) and Send buffers into the
// outbox.
type fedBufEndpoint struct {
	inbox   []hdlsim.DataMsg
	polled  bool // inbox was released to the kernel and may be recycled
	out     []hdlsim.DataMsg
	outFree []hdlsim.DataMsg // swap buffer so Exchange reuses collected slices
}

func (ep *fedBufEndpoint) PollData() []hdlsim.DataMsg {
	if ep.polled || len(ep.inbox) == 0 {
		return nil
	}
	ep.polled = true
	return ep.inbox
}

func (ep *fedBufEndpoint) Send(d hdlsim.DataMsg) error {
	ep.out = append(ep.out, d)
	return nil
}

var _ hdlsim.DriverEndpoint = (*fedBufEndpoint)(nil)
var _ Federate = (*SimFederate)(nil)
