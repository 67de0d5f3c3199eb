package cosim

import (
	"fmt"

	"repro/internal/hdlsim"
)

// ProcFederate fronts an external party — typically a board process —
// that speaks the v3 wire protocol over any transport kind. It is the
// grant-issuing side of the link (it wraps an HWEndpoint), so from the
// time manager's perspective the remote process is a federate: Exchange
// forwards inbound events onto the DATA/INT channels, Step grants the
// quantum on CLOCK and waits for the acknowledgement, and the collected
// acknowledgement traffic flows back into the federation.
//
// Because the forwarded events hit the wire in the same channel order as
// mid-quantum sends from a kernel stepped directly over the HWEndpoint
// (DATA/INT frames, then the CLOCK grant carrying their drain counts), a
// K=2 federation puts the same bytes on the wire as that kernel would.
type ProcFederate struct {
	name  string
	ep    *HWEndpoint
	cur   SimTime
	begun bool     // BeginStep already sent the grant for the next Step
	out   []FedMsg // reused collection buffer
}

// NewProcFederate wraps an already-configured HWEndpoint (mode,
// AckTimeout, Observe) as a federate.
func NewProcFederate(name string, ep *HWEndpoint) *ProcFederate {
	return &ProcFederate{name: name, ep: ep}
}

// Name implements Federate.
func (f *ProcFederate) Name() string { return f.name }

// Exchange implements Federate: inbound events are forwarded on the wire
// immediately (the grant that follows carries their drain counts), and
// the DATA traffic announced by the last acknowledgement is returned.
// The returned slice is reused by the next Exchange.
func (f *ProcFederate) Exchange(in []FedMsg) ([]FedMsg, error) {
	for _, m := range in {
		switch m.Kind {
		case FedWrite:
			if err := f.ep.SendData(hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: m.Addr, Words: m.Words}); err != nil {
				return nil, err
			}
		case FedReadResp:
			if err := f.ep.SendData(hdlsim.DataMsg{Kind: hdlsim.DataReadResp, Addr: m.Addr, Words: m.Words}); err != nil {
				return nil, err
			}
		case FedInt:
			if err := f.ep.SendInterrupt(m.IRQ); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("cosim: %s: wire federate cannot forward %v", f.name, m.Kind)
		}
	}
	f.out = f.out[:0]
	for _, d := range f.ep.PollData() {
		switch d.Kind {
		case hdlsim.DataWrite:
			f.out = append(f.out, FedMsg{Kind: FedWrite, Addr: d.Addr, Words: d.Words})
		case hdlsim.DataReadReq:
			f.out = append(f.out, FedMsg{Kind: FedReadReq, Addr: d.Addr, Count: d.Count})
		default:
			return nil, fmt.Errorf("cosim: %s: unexpected %v from remote party", f.name, d.Kind)
		}
	}
	return f.out, nil
}

// BeginStep implements SplitStepper: it sends the CLOCK grant without
// waiting, so the manager can launch all remote parties' quanta before
// collecting any acknowledgement, overlapping the boards' quanta.
func (f *ProcFederate) BeginStep(until SimTime) error {
	if until < f.cur {
		return fmt.Errorf("cosim: %s: step backwards (%d < %d)", f.name, until, f.cur)
	}
	if err := f.ep.sendGrant(uint64(until-f.cur), uint64(until)); err != nil {
		return err
	}
	f.begun = true
	return nil
}

// Step implements Federate: grant (unless BeginStep already did) and
// wait for the remote acknowledgement; in pipelined mode the wait is for
// the previous grant's acknowledgement, so one grant stays in flight.
func (f *ProcFederate) Step(until SimTime) (SimTime, error) {
	if !f.begun {
		if err := f.BeginStep(until); err != nil {
			return f.cur, err
		}
	}
	f.begun = false
	f.cur = until
	return until, f.ep.awaitAck()
}

// Lookahead implements Federate: the remote party's promise from its
// most recent acknowledgement (NoLookahead in pipelined mode, where the
// promise is a quantum stale).
func (f *ProcFederate) Lookahead() uint64 { return f.ep.PeerLookahead() }

// SetGrantLead implements LeadSink: the lead carried on the next
// outgoing grant.
func (f *ProcFederate) SetGrantLead(ticks uint64) { f.ep.SetLead(ticks) }

// Done implements Federate: a wire party never ends the run on its own.
func (f *ProcFederate) Done() bool { return false }

// Finish implements Federate: the MTFinish/MTFinishAck shutdown
// handshake, draining any outstanding acknowledgement first.
func (f *ProcFederate) Finish(at SimTime) error { return f.ep.Finish(uint64(at)) }

// BoardTime implements BoardClock.
func (f *ProcFederate) BoardTime() (cycle, swTick uint64) { return f.ep.BoardTime() }

var _ Federate = (*ProcFederate)(nil)
var _ SplitStepper = (*ProcFederate)(nil)
var _ LeadSink = (*ProcFederate)(nil)
var _ BoardClock = (*ProcFederate)(nil)
