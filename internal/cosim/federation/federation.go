// Package federation coordinates K co-simulation federates under one
// conservative quantum clock — the N-party generalization of the
// pairwise HW/SW rendezvous (hdlsim.DriverSimulate ↔ HWEndpoint).
//
// The time manager distinguishes two party roles, mirroring the paper's
// master/slave quantum protocol:
//
//   - eager parties (device engines, cosim.SimFederate) drive the clock:
//     they step every TSync quantum and emit events as they simulate;
//   - granted parties (boards and external processes, board.Federate /
//     cosim.ProcFederate) freeze between rendezvous and advance in one
//     piece when the federation grants accumulated time.
//
// The schedule itself is hdlsim.RunSchedule, the loop DriverSimulate
// runs too: the manager is its QuantumParty, with the peer lookahead
// generalized to the minimum over all granted parties, the traffic
// check to any event routed to a granted party, and each grant's lead
// handed to every granted party that takes one (cosim.LeadSink). Eager
// parties make no promise. A K=2 federation therefore makes
// bit-identical elision decisions — and, through cosim.ProcFederate,
// byte-identical wire traffic — to the pairwise path.
//
// Events are exchanged only at boundaries and routed by explicit links
// (address windows for data, line numbers for interrupts), so the whole
// schedule is a deterministic function of the configuration. The package
// is held to the strict determinism lint tier: no wall-clock, no
// unseeded randomness, no goroutines, no map iteration.
package federation

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cosim"
	"repro/internal/hdlsim"
)

// Party declares one federation member.
type Party struct {
	// Fed is the engine. Its Name must be unique within the federation.
	Fed cosim.Federate
	// Eager marks a clock-driving engine that steps every quantum; false
	// marks a granted party that advances only at rendezvous.
	Eager bool
}

// Link routes events from one party to another. Data events (writes,
// read requests/responses) emitted by From with an address inside
// [Base, Base+Size) are delivered to To; interrupt events on one of the
// IRQs lines likewise. A link is unidirectional — declare one per
// direction. Windows of links sharing a From must not overlap, and an
// IRQ line may appear on at most one link per From, so routing is
// unambiguous.
type Link struct {
	From, To int
	// Base/Size is the word-address window routed From→To; Size 0
	// declares an interrupt-only link.
	Base, Size uint32
	// IRQs lists the interrupt lines routed From→To.
	IRQs []uint8
}

// Config describes a federation: its parties, the event-routing
// topology, and the quantum schedule. Validate rejects incoherent
// configurations with actionable errors, like router.RunConfig.Validate.
type Config struct {
	Parties []Party
	Links   []Link
	// DriverConfig is the schedule, in grant ticks: TotalCycles is the
	// run's horizon and StopEarly is polled at every boundary. With
	// Adaptive set, a single granted party reporting cosim.NoLookahead
	// pins the whole federation to plain TSync stepping.
	hdlsim.DriverConfig
}

// Validate rejects incoherent federations up front.
func (c Config) Validate() error {
	if len(c.Parties) < 2 {
		return fmt.Errorf("federation: invalid Config: %d parties — a federation needs at least two (one device engine and one board is the smallest topology)", len(c.Parties))
	}
	if err := c.DriverConfig.Validate(); err != nil {
		return fmt.Errorf("federation: invalid Config: %w", err)
	}
	if c.TotalCycles == 0 {
		return fmt.Errorf("federation: invalid Config: TotalCycles is 0, so the run would end before any quantum; set the tick budget")
	}
	seen := make(map[string]int, len(c.Parties))
	for i, p := range c.Parties {
		if p.Fed == nil {
			return fmt.Errorf("federation: invalid Config: party %d has a nil Federate", i)
		}
		name := p.Fed.Name()
		if name == "" {
			return fmt.Errorf("federation: invalid Config: party %d has an empty name", i)
		}
		if j, dup := seen[name]; dup {
			return fmt.Errorf("federation: invalid Config: parties %d and %d share the name %q", j, i, name)
		}
		seen[name] = i
	}
	for i, l := range c.Links {
		if l.From < 0 || l.From >= len(c.Parties) || l.To < 0 || l.To >= len(c.Parties) {
			return fmt.Errorf("federation: invalid Config: link %d references party %d/%d outside [0,%d)", i, l.From, l.To, len(c.Parties))
		}
		if l.From == l.To {
			return fmt.Errorf("federation: invalid Config: link %d routes party %d to itself", i, l.From)
		}
		if l.Size == 0 && len(l.IRQs) == 0 {
			return fmt.Errorf("federation: invalid Config: link %d routes neither an address window nor an interrupt line", i)
		}
		for j := 0; j < i; j++ {
			o := c.Links[j]
			if o.From != l.From {
				continue
			}
			if l.Size > 0 && o.Size > 0 && l.Base < o.Base+o.Size && o.Base < l.Base+l.Size {
				return fmt.Errorf("federation: invalid Config: links %d and %d route overlapping windows from party %d", j, i, l.From)
			}
			for _, a := range l.IRQs {
				if slices.Contains(o.IRQs, a) {
					return fmt.Errorf("federation: invalid Config: links %d and %d both route IRQ %d from party %d", j, i, a, l.From)
				}
			}
		}
	}
	return nil
}

// Stats aggregates one federation run: the schedule's counters, which
// every party shares (each takes part in every rendezvous and every
// elision), and the slowest board cycle acknowledged at the last
// rendezvous (the final grant time when no party reports a board clock).
type Stats struct {
	hdlsim.ScheduleStats
	LastBoardCy uint64
}

// member is one party with its optional capabilities resolved once, so
// the boundary loop makes no type assertions, and with the events routed
// to it awaiting delivery.
type member struct {
	idx   int
	fed   cosim.Federate
	name  string
	inbox []cosim.FedMsg
	split cosim.SplitStepper // granted parties overlapping their grants
	sink  cosim.LeadSink     // granted parties placing grant traffic at its lead
	clock cosim.BoardClock   // granted parties reporting board time
}

// TimeManager is the hierarchical coordinator: it drives every federate
// from a single goroutine, in a deterministic order, on the quantum
// clock of hdlsim.RunSchedule.
type TimeManager struct {
	cfg     Config
	parties []member
	eager   []*member // in config order
	lazy    []*member
	// peer is the granted parties' minimum lookahead. They are frozen
	// between rendezvous, so it is folded once per rendezvous.
	peer        uint64
	lastBoardCy uint64 // see Stats
	ctx         context.Context
	canceled    <-chan struct{} // ctx.Done(), resolved once per run
}

// New validates the configuration and builds a manager.
func New(cfg Config) (*TimeManager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tm := &TimeManager{cfg: cfg, parties: make([]member, len(cfg.Parties))}
	for i, p := range cfg.Parties {
		m := &tm.parties[i]
		m.idx, m.fed, m.name = i, p.Fed, p.Fed.Name()
		m.split, _ = p.Fed.(cosim.SplitStepper)
		m.sink, _ = p.Fed.(cosim.LeadSink)
		m.clock, _ = p.Fed.(cosim.BoardClock)
		if p.Eager {
			tm.eager = append(tm.eager, m)
		} else {
			tm.lazy = append(tm.lazy, m)
		}
	}
	return tm, nil
}

// covers reports whether l routes m: by line for interrupts, by address
// window for data.
func (l Link) covers(m cosim.FedMsg) bool {
	if m.Kind == cosim.FedInt {
		return slices.Contains(l.IRQs, m.IRQ)
	}
	return l.Size > 0 && m.Addr >= l.Base && m.Addr < l.Base+l.Size
}

// route distributes the events src emitted to their destinations'
// inboxes along the first link from src that covers each.
func (tm *TimeManager) route(src *member, out []cosim.FedMsg) error {
	for _, m := range out {
		dst := -1
		for _, l := range tm.cfg.Links {
			if l.From == src.idx && l.covers(m) {
				dst = l.To
				break
			}
		}
		switch {
		case dst >= 0:
			tm.parties[dst].inbox = append(tm.parties[dst].inbox, m)
		case m.Kind == cosim.FedInt:
			return fmt.Errorf("federation: no link routes IRQ %d from party %q", m.IRQ, src.name)
		default:
			return fmt.Errorf("federation: no link window covers address %#x from party %q", m.Addr, src.name)
		}
	}
	return nil
}

// deliver hands m its pending inbox (and routes anything it had
// buffered, normally nothing at delivery points).
func (tm *TimeManager) deliver(m *member) error {
	out, err := m.fed.Exchange(m.inbox)
	m.inbox = m.inbox[:0]
	if err != nil {
		return fmt.Errorf("federation: party %q exchange: %w", m.name, err)
	}
	return tm.route(m, out)
}

// collect routes the events m emitted during its last step.
func (tm *TimeManager) collect(m *member) error {
	out, err := m.fed.Exchange(nil)
	if err != nil {
		return fmt.Errorf("federation: party %q exchange: %w", m.name, err)
	}
	if len(out) == 0 {
		return nil
	}
	return tm.route(m, out)
}

// minLookahead folds the promises of the parties in set.
func minLookahead(set []*member) uint64 {
	min := uint64(hdlsim.UnboundedLookahead)
	for _, m := range set {
		if la := m.fed.Lookahead(); la < min {
			min = la
		}
	}
	return min
}

// Run executes the federation under hdlsim.RunSchedule — to the horizon
// (TotalCycles), until a clock-driving party halts, or until StopEarly
// fires — and finishes every party. Cancelling ctx stops the run at the
// next TSync boundary, elided or not, with the context's cause: an
// adaptive run checks it where it would elide and takes the rendezvous
// instead.
func (tm *TimeManager) Run(ctx context.Context) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tm.ctx, tm.canceled = ctx, ctx.Done()
	if tm.cfg.Adaptive {
		tm.peer = minLookahead(tm.lazy)
	}
	sched, err := hdlsim.RunSchedule(tm.cfg.DriverConfig, (*schedule)(tm))
	st := Stats{ScheduleStats: sched, LastBoardCy: tm.lastBoardCy}
	if err != nil {
		return st, err
	}
	for i := range tm.parties {
		m := &tm.parties[i]
		if ferr := m.fed.Finish(cosim.SimTime(sched.Now)); ferr != nil && err == nil {
			err = fmt.Errorf("federation: party %q finish: %w", m.name, ferr)
		}
	}
	return st, err
}

// schedule is the manager seen as the hdlsim.QuantumParty its Run drives.
type schedule TimeManager

// Advance steps every eager party to until (each first receives what was
// routed to it) and routes what they emitted; the federation reaches the
// slowest of them.
func (s *schedule) Advance(until uint64) (uint64, bool, error) {
	tm := (*TimeManager)(s)
	reached, halted := cosim.SimTime(until), false
	for _, m := range tm.eager {
		if len(m.inbox) > 0 {
			if err := tm.deliver(m); err != nil {
				return 0, false, err
			}
		}
		r, err := m.fed.Step(cosim.SimTime(until))
		if err != nil {
			return 0, false, fmt.Errorf("federation: party %q step: %w", m.name, err)
		}
		if err := tm.collect(m); err != nil {
			return 0, false, err
		}
		reached = min(reached, r)
		halted = halted || m.fed.Done()
	}
	return uint64(reached), halted, nil
}

// Boundary reports traffic when the run is cancelled, which forces the
// rendezvous that returns the cause, or when an event waits for a
// granted party, and otherwise the granted parties' promise (the peer).
func (s *schedule) Boundary() (bool, uint64) {
	tm := (*TimeManager)(s)
	select {
	case <-tm.canceled:
		return true, 0
	default:
	}
	for _, m := range tm.lazy {
		if len(m.inbox) > 0 {
			return true, 0
		}
	}
	return false, tm.peer
}

// Rendezvous grants every granted party the federation time up to now,
// with the events routed to it landing lead ticks into the grant,
// overlapping wire parties' quanta (all grants first, acknowledgements
// second), routes the collected traffic, and records the slowest board
// clock. The peer promise is folded only in adaptive runs, as in the
// pairwise driver.
func (s *schedule) Rendezvous(acc, lead, now uint64) error {
	tm := (*TimeManager)(s)
	select {
	case <-tm.canceled:
		return fmt.Errorf("federation: run canceled: %w", context.Cause(tm.ctx))
	default:
	}
	until := cosim.SimTime(now)
	for _, m := range tm.lazy {
		if m.sink != nil {
			m.sink.SetGrantLead(lead)
		}
		if err := tm.deliver(m); err != nil {
			return err
		}
		if m.split != nil {
			if err := m.split.BeginStep(until); err != nil {
				return fmt.Errorf("federation: party %q grant: %w", m.name, err)
			}
		}
	}
	boardCy := now
	haveClock := false
	for _, m := range tm.lazy {
		if _, err := m.fed.Step(until); err != nil {
			return fmt.Errorf("federation: party %q step: %w", m.name, err)
		}
		if err := tm.collect(m); err != nil {
			return err
		}
		if m.clock != nil {
			cy, _ := m.clock.BoardTime()
			if !haveClock || cy < boardCy {
				boardCy = cy
			}
			haveClock = true
		}
	}
	tm.lastBoardCy = boardCy
	if tm.cfg.Adaptive {
		tm.peer = minLookahead(tm.lazy)
	}
	return nil
}
