package federation

import (
	"fmt"

	"repro/internal/cosim"
)

// Schedule is the quantum schedule of one co-simulation run.
type Schedule struct {
	// TSync is the synchronization interval in clock cycles: one CLOCK-port
	// rendezvous is performed every TSync cycles. TSync == 1 is lockstep.
	// TSync ≥ TotalCycles degenerates to a single grant (the paper's
	// "simulation without synchronization" normalizer).
	TSync uint64
	// TotalCycles bounds the co-simulation length.
	TotalCycles uint64
	// StopEarly, if non-nil, is polled exactly once per TSync boundary;
	// returning true ends the co-simulation at that boundary, after its
	// rendezvous. A boundary that adaptive elongation would elide polls
	// it before the decision (a true return takes the rendezvous
	// instead); every other boundary polls it after the rendezvous, when
	// the board has run its quantum. Inside a quiet stretch stepped in
	// one call (QuietParty) the clock-driving party makes the elidable
	// boundaries' polls itself, and a boundary where it fired becomes
	// the rendezvous without a second poll. It must be a predicate of
	// simulation state that stays true once true, so an elongated run
	// ends at the same cycle it would have without elongation.
	StopEarly func() bool
	// Adaptive enables lookahead-negotiated quantum elongation: a TSync
	// boundary is skipped (no CLOCK rendezvous) when no traffic was sent
	// since the last grant and the accumulated grant stays strictly
	// inside the board's promised lookahead. Each grant's lead places its
	// traffic at the start of the quantum that produced it, so elongated
	// runs produce bit-identical simulated-time results with no promise
	// from the device model.
	Adaptive bool
	// MaxQuantum caps the accumulated elongated quantum in clock cycles.
	// 0 means no cap: a quiet stretch elongates until traffic or a
	// lookahead promise forces a rendezvous. A value below TSync is
	// clamped up to TSync.
	MaxQuantum uint64
}

// Validate rejects a schedule that could never grant virtual time.
func (c Schedule) Validate() error {
	if c.TSync == 0 {
		return fmt.Errorf("federation: invalid Schedule: TSync is 0, so no virtual time would ever be granted; set a synchronization interval ≥ 1")
	}
	return nil
}

// QuantumParty is what RunSchedule drives: the clock-driving side of a
// run together with the peers it grants time to. The time manager adapts
// its eager and granted parties; tests substitute scripted sides. A side
// whose clock-driving party can step a quiet stretch in one call also
// implements QuietParty.
type QuantumParty interface {
	// Advance runs the clock-driving side up to absolute time until and
	// returns the time reached, which is below until only when it
	// halted. halted reports that it stopped itself.
	Advance(until uint64) (reached uint64, halted bool, err error)
	// Boundary reports an adaptive run's elision inputs at a TSync
	// boundary: whether traffic was sent since the last grant, then the
	// peers' lookahead promise in ticks. The promise is ignored when
	// traffic is pending, so an implementation may leave it zero then.
	Boundary() (traffic bool, peer uint64)
	// Rendezvous performs the CLOCK rendezvous at time now, granting the
	// peers the acc ticks accumulated since the previous one. lead is
	// where the grant's traffic lands: the start of the quantum that
	// produced it (the last boundary passed), in ticks from the previous
	// rendezvous. A peer runs lead ticks, applies the traffic, then runs
	// the rest; the elided boundaries before it proved the peers idle
	// for those lead ticks (lead < peer lookahead), so the grant is
	// exact. lead is 0 in plain stepping.
	Rendezvous(acc, lead, now uint64) error
}

// QuietParty is an optional QuantumParty capability, used only in
// adaptive runs: the side steps, in one call, a stretch of boundaries
// that RunSchedule has proved elidable but for traffic, StopEarly, a
// halt or cancellation. Its peer promise must stay fixed between
// rendezvous, as the time manager's does, because the proof reads it
// once.
type QuietParty interface {
	// AdvanceQuiet starts on a boundary and is equivalent to an Advance
	// to every following TSync boundary in turn, up to until. It returns
	// at the first of them where traffic was sent since the call began,
	// the side halted or the run was cancelled (the next Boundary then
	// reports it), or where poll returned true; a halt between
	// boundaries returns the time reached. poll is StopEarly's poll: it
	// is called exactly once at each boundary before until that is
	// returned for none of the other reasons, and never at until.
	AdvanceQuiet(until, tsync uint64, poll func() bool) (reached uint64, halted bool, err error)
}

// SyncReason says why RunSchedule performed a rendezvous. The first
// three are elideBoundary's verdicts, in the order it checks them.
type SyncReason uint8

const (
	// SyncTraffic: traffic was sent since the last grant.
	SyncTraffic SyncReason = iota
	// SyncCap: one more quantum would pass the MaxQuantum cap.
	SyncCap
	// SyncPeer: the accumulated grant reached the peers' lookahead.
	SyncPeer
	// SyncStopping: the boundary was elidable, but StopEarly fired.
	SyncStopping
	// SyncPlain: a non-adaptive run rendezvouses at every boundary.
	SyncPlain
	// SyncFinal: the partial grant that settles the end of the run.
	SyncFinal
	// NumSyncReasons sizes ScheduleStats.SyncsBy.
	NumSyncReasons
)

// syncElide is elideBoundary's verdict that a boundary may be skipped.
const syncElide = NumSyncReasons

var syncReasonNames = [NumSyncReasons]string{"traffic", "cap", "peer", "stopping", "plain", "final"}

// String returns the reason's metric label.
func (r SyncReason) String() string { return syncReasonNames[r] }

// ScheduleStats counts what RunSchedule did.
type ScheduleStats struct {
	// Now is the final virtual time.
	Now uint64
	// Quanta counts TSync boundaries passed; Syncs counts rendezvous,
	// the final partial grant included; Elided counts boundaries skipped
	// by adaptive elongation (Quanta = Syncs + Elided when the run ends
	// on a boundary).
	Quanta, Syncs, Elided uint64
	// SyncsBy splits Syncs by the reason each rendezvous happened.
	SyncsBy [NumSyncReasons]uint64
}

// RunSchedule is the paper's driver_simulate schedule: advance the
// clock-driving side one TSync quantum at a time and, at every boundary,
// either elide it (adaptive runs, see elideBoundary) or perform the
// rendezvous granting everything accumulated since the last one. The run
// ends at cfg.TotalCycles, when the clock-driving side halts (mid-quantum
// or at a boundary) or when StopEarly fires; a final partial grant
// settles any remainder. Every grant carries its lead (see
// QuantumParty.Rendezvous).
//
// After an elided boundary, a QuietParty side is advanced in one call to
// the elision horizon: the first later boundary elideBoundary would
// refuse for the cap or the peer promise, capped at the last full
// boundary. The boundaries the call passes count as elided, and the
// boundary it returns at gets the usual decision, as StopEarly's
// stopping rendezvous when the poll fired there.
func RunSchedule(cfg Schedule, p QuantumParty) (ScheduleStats, error) {
	var st ScheduleStats
	if err := cfg.Validate(); err != nil {
		return st, err
	}
	maxQ := effectiveMaxQuantum(cfg.TSync, cfg.MaxQuantum)
	stopped := false // the last StopEarly poll fired
	stop := func() bool {
		stopped = cfg.StopEarly != nil && cfg.StopEarly()
		return stopped
	}
	quiet, _ := p.(QuietParty)
	if !cfg.Adaptive {
		quiet = nil
	}
	lastFull := cfg.TotalCycles / cfg.TSync * cfg.TSync
	granted := uint64(0) // time of the last rendezvous
	last := uint64(0)    // time of the last boundary passed
	horizon := uint64(0) // the elision horizon after an elided boundary, else 0
	for st.Now < cfg.TotalCycles {
		full := cfg.TotalCycles-st.Now >= cfg.TSync
		target := cfg.TotalCycles
		if full {
			target = st.Now + cfg.TSync
		}
		var reached uint64
		var halted bool
		var err error
		if horizon > target {
			// Every boundary before the horizon is elidable unless the
			// call returns there, so the ones it passed are counted here.
			reached, halted, err = quiet.AdvanceQuiet(horizon, cfg.TSync, stop)
			if err != nil {
				return st, err
			}
			n := (reached - st.Now - 1) / cfg.TSync
			st.Quanta += n
			st.Elided += n
			last = st.Now + n*cfg.TSync
			target = last + cfg.TSync
		} else if reached, halted, err = p.Advance(target); err != nil {
			return st, err
		}
		st.Now = reached
		if reached < target {
			break // halted mid-quantum
		}
		if full {
			st.Quanta++
			acc, lead := st.Now-granted, last-granted
			last = st.Now
			why := SyncPlain
			peer := uint64(0)
			if cfg.Adaptive {
				var traffic bool
				traffic, peer = p.Boundary()
				why = elideBoundary(acc, cfg.TSync, maxQ, peer, traffic)
			}
			// One StopEarly poll per boundary (see Schedule): before
			// the decision when the boundary is elidable, unless the
			// quiet call's poll fired here, else after the rendezvous.
			if why == syncElide && !stopped && !stop() {
				st.Elided++
				if quiet != nil {
					horizon = elisionHorizon(granted, lastFull, cfg.TSync, min(peer, maxQ-cfg.TSync+1))
				}
			} else {
				if err := p.Rendezvous(acc, lead, st.Now); err != nil {
					return st, err
				}
				st.Syncs++
				granted, horizon = st.Now, 0
				if why == syncElide {
					st.SyncsBy[SyncStopping]++
					break
				}
				st.SyncsBy[why]++
				if stop() {
					break
				}
			}
		}
		if halted {
			break
		}
	}
	if st.Now > granted {
		if err := p.Rendezvous(st.Now-granted, last-granted, st.Now); err != nil {
			return st, err
		}
		st.Syncs++
		st.SyncsBy[SyncFinal]++
	}
	return st, nil
}

// elisionHorizon is the first boundary after the rendezvous at granted
// where the accumulated grant reaches refuse, the first that
// elideBoundary turns down for the cap or the peer promise, capped at
// lastFull, the last full boundary. Boundaries are multiples of tsync.
func elisionHorizon(granted, lastFull, tsync, refuse uint64) uint64 {
	if refuse >= lastFull-granted {
		return lastFull
	}
	at := granted + refuse
	h := at / tsync * tsync
	if h < at {
		h += tsync
	}
	return h
}

// effectiveMaxQuantum resolves a Schedule.MaxQuantum value against its
// TSync: 0 means cosim.UnboundedLookahead, and the result is clamped up
// to at least TSync.
func effectiveMaxQuantum(tsync, maxQuantum uint64) uint64 {
	switch {
	case maxQuantum == 0:
		return cosim.UnboundedLookahead
	case maxQuantum < tsync:
		return tsync
	}
	return maxQuantum
}

// elideBoundary is the conservative-elision predicate: a TSync boundary
// may be skipped (syncElide) exactly when (a) no traffic was sent since
// the last grant, so a grant only ever carries the traffic of its last
// quantum and one lead places all of it, (b) the accumulated grant acc
// stays within the cap with room for one more quantum, and (c) acc is
// strictly inside the peer's promised lookahead (strict, because an
// event exactly at the boundary must see its own rendezvous), so the
// peer is idle up to the boundary where the next grant's traffic lands.
// Otherwise it returns the first condition that failed.
func elideBoundary(acc, tsync, maxQ, peerLookahead uint64, trafficPending bool) SyncReason {
	switch {
	case trafficPending:
		return SyncTraffic
	case acc > maxQ-tsync:
		return SyncCap
	case acc >= peerLookahead:
		return SyncPeer
	}
	return syncElide
}
