package hdlsim

import "fmt"

// DriverConfig is the quantum schedule of one co-simulation run, shared
// by DriverSimulate and the federation time manager.
type DriverConfig struct {
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
	// the board has run its quantum. It must be a predicate of
	// simulation state that stays true once true, so an elongated run
	// ends at the same cycle it would have without elongation.
	StopEarly func() bool
	// Adaptive enables lookahead-negotiated quantum elongation: a TSync
	// boundary is skipped (no CLOCK rendezvous) when no traffic was sent
	// since the last grant, the accumulated grant stays strictly inside
	// the board's promised lookahead, and the device model does not
	// expect to interrupt within the next TSync cycles. DriverSimulate
	// requires an endpoint implementing AdaptiveEndpoint and silently
	// ignores the flag otherwise. Elongated runs produce bit-identical
	// simulated-time results.
	Adaptive bool
	// MaxQuantum caps the accumulated elongated quantum in clock cycles.
	// 0 means no cap: a quiet stretch elongates until traffic or a
	// lookahead promise forces a rendezvous. A value below TSync is
	// clamped up to TSync.
	MaxQuantum uint64
}

// Validate rejects a schedule that could never grant virtual time.
func (c DriverConfig) Validate() error {
	if c.TSync == 0 {
		return fmt.Errorf("hdlsim: invalid DriverConfig: TSync is 0, so no virtual time would ever be granted; set a synchronization interval ≥ 1")
	}
	return nil
}

// QuantumParty is what RunSchedule drives: the clock-driving side of a
// run together with the peers it grants time to. DriverSimulate adapts
// one kernel and its endpoint; the federation time manager adapts its
// eager and granted parties.
type QuantumParty interface {
	// Advance runs the clock-driving side up to absolute time until and
	// returns the time reached, which is below until only when it
	// halted. halted reports that it stopped itself.
	Advance(until uint64) (reached uint64, halted bool, err error)
	// Boundary reports an adaptive run's elision inputs at a TSync
	// boundary: whether traffic was sent since the last grant, then the
	// peers' and the local model's lookahead promises in ticks. The
	// promises are ignored when traffic is pending, so an implementation
	// may leave them zero then.
	Boundary() (traffic bool, peer, local uint64)
	// Rendezvous performs the CLOCK rendezvous at time now, granting the
	// peers the acc ticks accumulated since the previous one.
	Rendezvous(acc, now uint64) error
}

// SyncReason says why RunSchedule performed a rendezvous. The first
// four are elideBoundary's verdicts, in the order it checks them.
type SyncReason uint8

const (
	// SyncTraffic: traffic was sent since the last grant.
	SyncTraffic SyncReason = iota
	// SyncCap: one more quantum would pass the MaxQuantum cap.
	SyncCap
	// SyncPeer: the accumulated grant reached the peers' lookahead.
	SyncPeer
	// SyncLocal: the local model may interrupt within the next quantum.
	SyncLocal
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

var syncReasonNames = [NumSyncReasons]string{"traffic", "cap", "peer", "local", "stopping", "plain", "final"}

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
// settles any remainder.
func RunSchedule(cfg DriverConfig, p QuantumParty) (ScheduleStats, error) {
	var st ScheduleStats
	if err := cfg.Validate(); err != nil {
		return st, err
	}
	maxQ := effectiveMaxQuantum(cfg.TSync, cfg.MaxQuantum)
	stop := func() bool { return cfg.StopEarly != nil && cfg.StopEarly() }
	granted := uint64(0) // time of the last rendezvous
	for st.Now < cfg.TotalCycles {
		full := cfg.TotalCycles-st.Now >= cfg.TSync
		target := cfg.TotalCycles
		if full {
			target = st.Now + cfg.TSync
		}
		reached, halted, err := p.Advance(target)
		if err != nil {
			return st, err
		}
		st.Now = reached
		if reached < target {
			break // halted mid-quantum
		}
		if full {
			st.Quanta++
			acc := st.Now - granted
			why := SyncPlain
			if cfg.Adaptive {
				traffic, peer, local := p.Boundary()
				why = elideBoundary(acc, cfg.TSync, maxQ, peer, local, traffic)
			}
			// One StopEarly poll per boundary (see DriverConfig): before
			// the decision when the boundary is elidable, else after the
			// rendezvous.
			if why == syncElide && !stop() {
				st.Elided++
			} else {
				if err := p.Rendezvous(acc, st.Now); err != nil {
					return st, err
				}
				st.Syncs++
				granted = st.Now
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
		if err := p.Rendezvous(st.Now-granted, st.Now); err != nil {
			return st, err
		}
		st.Syncs++
		st.SyncsBy[SyncFinal]++
	}
	return st, nil
}

// effectiveMaxQuantum resolves a DriverConfig.MaxQuantum value against
// its TSync: 0 means UnboundedLookahead, and the result is clamped up to
// at least TSync.
func effectiveMaxQuantum(tsync, maxQuantum uint64) uint64 {
	switch {
	case maxQuantum == 0:
		return UnboundedLookahead
	case maxQuantum < tsync:
		return tsync
	}
	return maxQuantum
}

// elideBoundary is the conservative-elision predicate: a TSync boundary
// may be skipped (syncElide) exactly when (a) no traffic was sent since
// the last grant — the a-posteriori check that guarantees bit-identical
// results even when a lookahead promise was wrong, (b) the accumulated
// grant acc stays within the cap with room for one more quantum, (c)
// acc is strictly inside the peer's promised lookahead (strict, because
// an event exactly at the boundary must see its own rendezvous), and
// (d) the local model does not expect to interrupt within the next
// quantum. Otherwise it returns the first condition that failed.
func elideBoundary(acc, tsync, maxQ, peerLookahead, localLookahead uint64, trafficPending bool) SyncReason {
	switch {
	case trafficPending:
		return SyncTraffic
	case acc > maxQ-tsync:
		return SyncCap
	case acc >= peerLookahead:
		return SyncPeer
	case localLookahead < tsync:
		return SyncLocal
	}
	return syncElide
}
