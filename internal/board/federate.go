package board

import (
	"fmt"

	"repro/internal/cosim"
)

// Federate adapts a Board to cosim.Federate: the in-process board engine
// of a federation. Instead of blocking on a wire endpoint for grants
// (Board.Run), the board advances when the time manager steps it: the
// kernel runs the granted ticks, applying the inbound events staged by
// Exchange at the grant's lead (SetGrantLead) in the same bus order as
// a wire grant (writes, then read responses, then interrupts), and the
// traffic its remote device drivers posted during the advance is
// collected by the next Exchange.
type Federate struct {
	name string
	b    *Board
	link fedLink
	cur  cosim.SimTime
	lead uint64 // of the next Step, see SetGrantLead

	// staged inbound, applied at the next Step
	writes []cosim.RegBlock
	reads  []cosim.RegBlock
	irqs   []uint8

	out []cosim.FedMsg // reused collection buffer
}

// NewFederate wraps the board as a federate and attaches its local link
// to every remote device registered so far, replacing any wire endpoint;
// devices created later must Attach the federate's Link themselves.
func NewFederate(name string, b *Board) *Federate {
	f := &Federate{name: name, b: b}
	for _, d := range b.devs {
		d.Attach(&f.link)
	}
	return f
}

// Link returns the DevLink remote devices post through.
func (f *Federate) Link() DevLink { return &f.link }

// Name implements cosim.Federate.
func (f *Federate) Name() string { return f.name }

// Exchange implements cosim.Federate: inbound events are staged for the
// next Step, outbound posted traffic since the last call is returned.
// The returned slice is reused by the next Exchange.
func (f *Federate) Exchange(in []cosim.FedMsg) ([]cosim.FedMsg, error) {
	for _, m := range in {
		switch m.Kind {
		case cosim.FedWrite:
			f.writes = append(f.writes, cosim.RegBlock{Addr: m.Addr, Words: m.Words})
		case cosim.FedReadResp:
			f.reads = append(f.reads, cosim.RegBlock{Addr: m.Addr, Words: m.Words})
		case cosim.FedInt:
			f.irqs = append(f.irqs, m.IRQ)
		default:
			return nil, fmt.Errorf("board: %s: board federate cannot accept %v", f.name, m.Kind)
		}
	}
	f.out = f.out[:0]
	for _, p := range f.link.posted {
		f.out = append(f.out, p)
	}
	f.link.posted = f.link.posted[:0]
	return f.out, nil
}

// SetGrantLead implements cosim.LeadSink: the next Step applies the
// staged traffic ticks into its grant.
func (f *Federate) SetGrantLead(ticks uint64) { f.lead = ticks }

// Step implements cosim.Federate: advance the kernel by the granted
// ticks, applying the staged grant traffic at the lead, as for a wire
// grant.
func (f *Federate) Step(until cosim.SimTime) (cosim.SimTime, error) {
	if until < f.cur {
		return f.cur, fmt.Errorf("board: %s: step backwards (%d < %d)", f.name, until, f.cur)
	}
	g := cosim.Grant{Ticks: uint64(until - f.cur), Lead: f.lead, Writes: f.writes, ReadResps: f.reads, Interrupts: f.irqs}
	if err := f.b.runGrant(g); err != nil {
		return f.cur, err
	}
	f.writes, f.reads, f.irqs = f.writes[:0], f.reads[:0], f.irqs[:0]
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

// fedLink buffers the board's outbound posted traffic between exchanges.
type fedLink struct {
	posted []cosim.FedMsg
}

// PostWrite implements DevLink; like the wire endpoint, it takes
// ownership of words (the slice stays in flight until the peer's next
// quantum).
func (l *fedLink) PostWrite(addr uint32, words []uint32) error {
	l.posted = append(l.posted, cosim.FedMsg{Kind: cosim.FedWrite, Addr: addr, Words: words})
	return nil
}

// PostReadReq implements DevLink.
func (l *fedLink) PostReadReq(addr, count uint32) error {
	l.posted = append(l.posted, cosim.FedMsg{Kind: cosim.FedReadReq, Addr: addr, Count: count})
	return nil
}

var _ cosim.Federate = (*Federate)(nil)
var _ cosim.BoardClock = (*Federate)(nil)
var _ cosim.LeadSink = (*Federate)(nil)
var _ DevLink = (*fedLink)(nil)
