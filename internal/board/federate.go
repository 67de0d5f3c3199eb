package board

import (
	"fmt"

	"repro/internal/cosim"
	"repro/internal/hdlsim"
)

// Federate adapts a Board to cosim.Federate: the in-process board engine
// of a federation. Instead of blocking on a wire endpoint for grants
// (Board.Run), the board advances when the time manager steps it: the
// kernel runs the granted ticks, applying the inbound events staged by
// Exchange at the grant's lead (SetGrantLead) as a wire grant's traffic,
// and the traffic its remote devices sent during the advance is collected
// by the next Exchange.
type Federate struct {
	b    *Board
	cur  cosim.SimTime
	lead uint64 // of the next Step, see SetGrantLead

	staged []hdlsim.DataMsg // inbound, applied at the next Step
	posted outbox           // outbound, the board's Link
	out    []hdlsim.DataMsg // swap buffer for posted
}

// NewFederate wraps the board as a federate and makes the federate's
// outbox the board's Link.
func NewFederate(b *Board) *Federate {
	f := &Federate{b: b}
	b.link = &f.posted
	return f
}

// Exchange implements cosim.Federate: inbound events are staged for the
// next Step, outbound traffic since the last call is returned. The
// returned slice is reused by the next Exchange.
func (f *Federate) Exchange(in []hdlsim.DataMsg) ([]hdlsim.DataMsg, error) {
	f.staged = append(f.staged, in...)
	out := f.posted
	f.posted = f.out[:0]
	f.out = out
	return out, nil
}

// SetGrantLead implements cosim.LeadSink: the next Step applies the
// staged traffic ticks into its grant.
func (f *Federate) SetGrantLead(ticks uint64) { f.lead = ticks }

// Step implements cosim.Federate: advance the kernel by the granted
// ticks, applying the staged grant traffic at the lead, as for a wire
// grant.
func (f *Federate) Step(until cosim.SimTime) (cosim.SimTime, error) {
	if until < f.cur {
		return f.cur, fmt.Errorf("board: step backwards (%d < %d)", until, f.cur)
	}
	if err := f.b.runGrant(cosim.Grant{Ticks: uint64(until - f.cur), Lead: f.lead, Traffic: f.staged}); err != nil {
		return f.cur, err
	}
	f.staged = f.staged[:0]
	f.cur = until
	return f.cur, nil
}

// Lookahead implements cosim.Federate via the kernel's wake bound.
func (f *Federate) Lookahead() uint64 { return f.b.Lookahead() }

// Done implements cosim.Federate: a board never ends the run on its own.
func (f *Federate) Done() bool { return false }

// Finish implements cosim.Federate.
func (f *Federate) Finish(at cosim.SimTime) error {
	f.b.K.Shutdown()
	return nil
}

// BoardTime implements cosim.BoardClock.
func (f *Federate) BoardTime() (cycle, swTick uint64) {
	return f.b.K.Cycles(), f.b.K.SWTick()
}

// outbox buffers the board's outbound traffic between exchanges.
type outbox []hdlsim.DataMsg

// Send implements Link; like the wire endpoint, it takes ownership of
// m.Words (the slice stays in flight until the peer's next quantum).
func (o *outbox) Send(m hdlsim.DataMsg) error {
	*o = append(*o, m)
	return nil
}

var _ cosim.Federate = (*Federate)(nil)
var _ cosim.BoardClock = (*Federate)(nil)
var _ cosim.LeadSink = (*Federate)(nil)
var _ Link = (*outbox)(nil)
