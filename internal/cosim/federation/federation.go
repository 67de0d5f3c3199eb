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
// Quantum boundaries may be elided exactly as in the pairwise adaptive
// path: the decision is hdlsim.ElideBoundary with the peer lookahead
// generalized to the minimum over all granted parties and the local
// lookahead to the minimum over all eager parties, plus the a-posteriori
// no-routed-traffic check. A K=2 federation therefore makes bit-identical
// elision decisions — and, through cosim.ProcFederate, byte-identical
// wire traffic — to the pairwise path.
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
// topology, and the quantum clock. Validate rejects incoherent
// configurations with actionable errors, like router.RunConfig.Validate.
type Config struct {
	Parties []Party
	Links   []Link
	// TSync is the base quantum in grant ticks.
	TSync uint64
	// Horizon bounds the run in grant ticks.
	Horizon uint64
	// Adaptive enables lookahead-negotiated quantum elongation across
	// the whole federation (see hdlsim.ElideBoundary); a single party
	// reporting cosim.NoLookahead pins the federation to plain TSync
	// stepping.
	Adaptive bool
	// MaxQuantum caps the elongated quantum when Adaptive is set; 0
	// means 64×TSync.
	MaxQuantum uint64
	// StopEarly, when non-nil, is consulted at every rendezvous; a true
	// return ends the run at that boundary (the pairwise
	// DriverConfig.StopEarly contract).
	StopEarly func() bool
}

// Validate rejects incoherent federations up front.
func (c Config) Validate() error {
	if len(c.Parties) < 2 {
		return fmt.Errorf("federation: invalid Config: %d parties — a federation needs at least two (one device engine and one board is the smallest topology)", len(c.Parties))
	}
	if c.TSync == 0 {
		return fmt.Errorf("federation: invalid Config: TSync is 0, so the manager would never grant virtual time; set a quantum ≥ 1")
	}
	if c.Horizon == 0 {
		return fmt.Errorf("federation: invalid Config: Horizon is 0, so the run would end before any quantum; set the tick budget")
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

// Stats aggregates one federation run.
type Stats struct {
	// Now is the federation's final virtual time.
	Now cosim.SimTime
	// Quanta counts TSync boundaries passed; Syncs counts rendezvous;
	// Elided counts boundaries skipped by adaptive elongation
	// (Quanta = Syncs + Elided when the horizon is quantum-aligned).
	// Every party takes part in every rendezvous and every elision.
	Quanta, Syncs, Elided uint64
}

// member is one party with its optional capabilities resolved once, so
// the boundary loop makes no type assertions, and with the events routed
// to it awaiting delivery.
type member struct {
	idx   int
	fed   cosim.Federate
	name  string
	inbox []cosim.FedMsg
	split cosim.SplitStepper  // granted parties overlapping their grants
	sink  cosim.LookaheadSink // granted parties forwarding the promise
	clock cosim.BoardClock    // granted parties reporting board time
}

// TimeManager is the hierarchical coordinator: it owns the federation's
// virtual clock and drives every federate from a single goroutine in a
// deterministic order.
type TimeManager struct {
	cfg     Config
	parties []member
	eager   []*member // in config order
	lazy    []*member
	recs    []cosim.SyncRecorder // the eager parties' recorders
	// peer is the granted parties' minimum lookahead. They are frozen
	// between rendezvous, so it is folded once per rendezvous.
	peer uint64
	// peerCycle is the slowest board cycle acknowledged at the last
	// rendezvous, for the recorders.
	peerCycle uint64
	stats     Stats
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
		m.sink, _ = p.Fed.(cosim.LookaheadSink)
		m.clock, _ = p.Fed.(cosim.BoardClock)
		if !p.Eager {
			tm.lazy = append(tm.lazy, m)
			continue
		}
		tm.eager = append(tm.eager, m)
		if rec, ok := p.Fed.(cosim.SyncRecorder); ok {
			tm.recs = append(tm.recs, rec)
		}
	}
	return tm, nil
}

// Stats returns the schedule counters (complete after Run returns).
func (tm *TimeManager) Stats() Stats { return tm.stats }

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

// minLookahead folds the promises of the parties in set, skipping skip
// (nil skips none).
func minLookahead(set []*member, skip *member) uint64 {
	min := uint64(hdlsim.UnboundedLookahead)
	for _, m := range set {
		if m == skip {
			continue
		}
		if la := m.fed.Lookahead(); la < min {
			min = la
		}
	}
	return min
}

// elide decides a quantum boundary with acc ticks accumulated since the
// last grant: hdlsim.ElideBoundary over the granted parties' promise
// (the peer) and the eager parties' minimum lookahead (the local model).
// Any event routed to a granted party — the a-posteriori traffic check —
// or a stopping run forces the rendezvous before the eager promises are
// folded.
func (tm *TimeManager) elide(acc, maxQ uint64, stopping bool) bool {
	if stopping {
		return false
	}
	for _, m := range tm.lazy {
		if len(m.inbox) > 0 {
			return false
		}
	}
	local := uint64(hdlsim.UnboundedLookahead)
	for _, m := range tm.eager {
		if la := m.fed.Lookahead(); la < local {
			local = la
		}
	}
	return hdlsim.ElideBoundary(acc, tm.cfg.TSync, maxQ, tm.peer, local, false, false)
}

// rendezvous grants every granted party the federation time up to until,
// overlapping wire parties' quanta (all grants first, acknowledgements
// second), routes the collected traffic, and records the slowest board
// clock. Lookahead is negotiated only in adaptive runs, as in the
// pairwise driver.
func (tm *TimeManager) rendezvous(until cosim.SimTime) error {
	adaptive := tm.cfg.Adaptive
	for _, m := range tm.lazy {
		if adaptive && m.sink != nil {
			// The promise carried to m: the minimum over every other party.
			m.sink.SetGrantLookahead(min(minLookahead(tm.eager, nil), minLookahead(tm.lazy, m)))
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
	peerCycle := uint64(until)
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
			if !haveClock || cy < peerCycle {
				peerCycle = cy
			}
			haveClock = true
		}
	}
	tm.peerCycle = peerCycle
	tm.stats.Syncs++
	if adaptive {
		tm.peer = minLookahead(tm.lazy, nil)
	}
	return nil
}

// Run executes the federation to its horizon (or until a clock-driving
// party halts, or StopEarly fires at a rendezvous) and finishes every
// party. It generalizes the pairwise DriverSimulate schedule: eager
// parties step every TSync quantum, boundaries are elided under the
// shared hdlsim.ElideBoundary predicate, granted parties advance in one
// piece at each rendezvous, and a final partial grant settles any
// remainder. Cancelling ctx stops the run at the next rendezvous — at
// most the elongation cap (MaxQuantum) away — with the context's cause.
func (tm *TimeManager) Run(ctx context.Context) (Stats, error) {
	tsync := cosim.SimTime(tm.cfg.TSync)
	maxQ := hdlsim.EffectiveMaxQuantum(tm.cfg.TSync, tm.cfg.MaxQuantum)
	horizon := cosim.SimTime(tm.cfg.Horizon)
	adaptive, stopEarly := tm.cfg.Adaptive, tm.cfg.StopEarly
	var canceled <-chan struct{} // nil never fires
	if ctx != nil {
		canceled = ctx.Done()
	}
	var cur, granted, boundary cosim.SimTime
	if adaptive {
		tm.peer = minLookahead(tm.lazy, nil)
	}
	stopped := false // any clock-driving party halted itself
	for _, m := range tm.eager {
		stopped = stopped || m.fed.Done()
	}
	for cur < horizon && !stopped {
		target := cur + tsync
		if target > horizon {
			target = horizon
		}
		reached := target
		for _, m := range tm.eager {
			if len(m.inbox) > 0 {
				if err := tm.deliver(m); err != nil {
					return tm.finishStats(cur), err
				}
			}
			r, err := m.fed.Step(target)
			if err != nil {
				return tm.finishStats(cur), fmt.Errorf("federation: party %q step: %w", m.name, err)
			}
			if err := tm.collect(m); err != nil {
				return tm.finishStats(cur), err
			}
			if r < reached {
				reached = r
			}
			if m.fed.Done() {
				stopped = true
			}
		}
		cur = reached
		if cur < target {
			// A clock-driving party halted mid-quantum; the final
			// partial grant below settles the remainder.
			break
		}
		if cur-boundary >= tsync {
			tm.stats.Quanta++
			stopping := stopEarly != nil && stopEarly()
			if adaptive && tm.elide(uint64(cur-granted), maxQ, stopping) {
				boundary = cur
				tm.stats.Elided++
			} else {
				select {
				case <-canceled:
					return tm.finishStats(cur), fmt.Errorf("federation: run canceled: %w", context.Cause(ctx))
				default:
				}
				if err := tm.rendezvous(cur); err != nil {
					return tm.finishStats(cur), err
				}
				granted, boundary = cur, cur
				if stopping {
					break
				}
			}
		}
	}
	if cur > granted {
		if err := tm.rendezvous(cur); err != nil {
			return tm.finishStats(cur), err
		}
		granted = cur
	}
	var firstErr error
	for i := range tm.parties {
		m := &tm.parties[i]
		if err := m.fed.Finish(cur); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("federation: party %q finish: %w", m.name, err)
		}
	}
	return tm.finishStats(cur), firstErr
}

// finishStats stamps the final clock into the stats snapshot and hands
// the schedule to the recorders.
func (tm *TimeManager) finishStats(now cosim.SimTime) Stats {
	tm.stats.Now = now
	for _, r := range tm.recs {
		r.RecordSchedule(tm.stats.Syncs, tm.stats.Elided, tm.peerCycle)
	}
	return tm.stats
}
