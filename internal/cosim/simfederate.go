package cosim

import (
	"fmt"

	"repro/internal/hdlsim"
)

// SimFederate adapts an hdlsim kernel to the Federate interface: the
// device engine of a federation. It drives the simulator with the same
// per-cycle stepping core as the pairwise path (hdlsim.Driver), but
// instead of a wire endpoint the kernel talks to an in-memory buffer —
// outbound DATA/INT traffic accumulates until the next Exchange, and
// inbound events delivered by Exchange become visible to the kernel at
// the first cycle of its next Step, exactly when the pairwise endpoint
// releases a quantum boundary's traffic.
type SimFederate struct {
	name string
	d    *hdlsim.Driver
	ep   *fedBufEndpoint
}

// NewSimFederate elaborates the simulator and wraps it as a federate.
// One grant tick equals one HDL clock cycle, as in the pairwise path.
func NewSimFederate(name string, s *hdlsim.Simulator, clk *hdlsim.Clock) (*SimFederate, error) {
	ep := &fedBufEndpoint{}
	d, err := s.NewDriver(clk, ep)
	if err != nil {
		return nil, err
	}
	return &SimFederate{name: name, d: d, ep: ep}, nil
}

// Name implements Federate.
func (f *SimFederate) Name() string { return f.name }

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
func (f *SimFederate) Exchange(in []FedMsg) ([]FedMsg, error) {
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
	for _, m := range in {
		switch m.Kind {
		case FedWrite:
			f.ep.inbox = append(f.ep.inbox, hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: m.Addr, Words: m.Words})
		case FedReadReq:
			f.ep.inbox = append(f.ep.inbox, hdlsim.DataMsg{Kind: hdlsim.DataReadReq, Addr: m.Addr, Count: m.Count})
		default:
			return nil, fmt.Errorf("cosim: %s: device federate cannot accept %v", f.name, m.Kind)
		}
	}
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

// Finish implements Federate; the kernel needs no shutdown handshake.
func (f *SimFederate) Finish(at SimTime) error { return nil }

// Stats returns the kernel's driver-loop counters; the schedule counters
// (SyncEvents, SyncsElided, LastBoardCy) are the time manager's Stats.
func (f *SimFederate) Stats() hdlsim.DriverStats { return f.d.Stats() }

// fedBufEndpoint is the in-memory hdlsim.DriverEndpoint behind a
// SimFederate: PollData releases the inbox once per delivery (matching
// HWEndpoint's once-per-quantum visibility), sends buffer into the
// outbox, and the boundary methods are never used — the time manager
// owns synchronization.
type fedBufEndpoint struct {
	inbox   []hdlsim.DataMsg
	polled  bool // inbox was released to the kernel and may be recycled
	out     []FedMsg
	outFree []FedMsg // swap buffer so Exchange reuses collected slices
}

func (ep *fedBufEndpoint) PollData() []hdlsim.DataMsg {
	if ep.polled || len(ep.inbox) == 0 {
		return nil
	}
	ep.polled = true
	return ep.inbox
}

func (ep *fedBufEndpoint) SendData(d hdlsim.DataMsg) error {
	switch d.Kind {
	case hdlsim.DataWrite:
		ep.out = append(ep.out, FedMsg{Kind: FedWrite, Addr: d.Addr, Words: d.Words})
	case hdlsim.DataReadResp:
		ep.out = append(ep.out, FedMsg{Kind: FedReadResp, Addr: d.Addr, Words: d.Words})
	default:
		return fmt.Errorf("cosim: federate device cannot send %v on DATA", d.Kind)
	}
	return nil
}

func (ep *fedBufEndpoint) SendInterrupt(irq uint8) error {
	ep.out = append(ep.out, FedMsg{Kind: FedInt, IRQ: irq})
	return nil
}

func (ep *fedBufEndpoint) Sync(ticks, hwCycle uint64) (uint64, error) {
	return 0, fmt.Errorf("cosim: federate buffer endpoint has no Sync; the time manager owns boundaries")
}

func (ep *fedBufEndpoint) Finish(hwCycle uint64) error { return nil }

var _ hdlsim.DriverEndpoint = (*fedBufEndpoint)(nil)
var _ Federate = (*SimFederate)(nil)
