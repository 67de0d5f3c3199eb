package cosim

import (
	"fmt"
	"time"

	"repro/internal/hdlsim"
)

// Grant is one quantum handed to the board: the number of virtual ticks to
// run plus the events the simulator emitted during its own quantum,
// already drained from the DATA and INT channels in deterministic order.
type Grant struct {
	// Ticks is the number of virtual ticks the board may advance.
	Ticks uint64
	// HWCycle is the simulator's cycle count at the grant.
	HWCycle uint64
	// Traffic is the simulator's writes, read responses and interrupts,
	// in arrival order (a wire grant lists its DATA frames, then its INT
	// frames). BoardEndpoint reuses the slice at the next WaitGrant.
	Traffic []hdlsim.DataMsg
	// Lead is where the traffic lands: the board runs Lead ticks, applies
	// Traffic, then runs the rest (see Msg.Lookahead). Lead ≤ Ticks.
	Lead uint64
	// Finished is true when the simulator ended the co-simulation; all
	// other fields are zero.
	Finished bool
}

// BoardEndpoint is the board side of the link: it consumes clock grants,
// exposes the tunnelled device traffic, sends the board's own (Send) and
// reports board time back. It is driven by the board's co-simulation loop
// (see package board).
type BoardEndpoint struct {
	endpoint
	traffic []hdlsim.DataMsg // the last grant's Traffic, reused
}

// NewBoardEndpoint wraps a transport for the board side.
func NewBoardEndpoint(tr Transport) *BoardEndpoint {
	return &BoardEndpoint{endpoint: newEndpoint(tr, "board", boardKinds, hwKinds)}
}

// WaitGrant blocks until the simulator issues the next quantum (or ends
// the run), draining exactly the cross-traffic the grant announces.
func (ep *BoardEndpoint) WaitGrant() (Grant, error) {
	t0 := time.Now() //cosim:wallclock -- sync-wait metric measures host blocking, not simulated time
	m, err := ep.tr.Recv(ChanClock)
	wait := time.Since(t0) //cosim:wallclock -- sync-wait metric measures host blocking, not simulated time
	ep.m.SyncWait += wait
	if err != nil {
		return Grant{}, err
	}
	switch m.Type {
	case MTFinish:
		g := Grant{Finished: true, HWCycle: m.HWCycle}
		m.Release() // control frame: Release is the contract's no-op
		return g, nil
	case MTClockGrant:
	default:
		// A stray frame on CLOCK may carry pooled payloads; recycle them
		// before surfacing the protocol error.
		m.Release()
		return Grant{}, fmt.Errorf("cosim: expected clock-grant on CLOCK, got %v", m.Type)
	}
	g := Grant{Ticks: m.Ticks, HWCycle: m.HWCycle, Lead: m.Lookahead}
	m.Release() // grant frame carries only scalars
	ep.m.SyncEvents++
	ep.m.TicksGranted += g.Ticks
	ep.lv.observeSync(wait)
	ep.lv.addTicks(g.Ticks)
	ep.traffic, err = ep.drain(ep.traffic[:0], ChanData, m.DataCount, 0)
	if err == nil {
		ep.traffic, err = ep.drain(ep.traffic, ChanInt, m.IntCount, 0)
	}
	if err != nil {
		return Grant{}, err
	}
	g.Traffic = ep.traffic
	return g, nil
}

// Ack reports that the board finished its quantum at the given local cycle
// and software tick. It carries the count of DATA messages the board sent
// during the quantum so the simulator drains exactly those, plus the
// board's lookahead promise in grant ticks (pass NoLookahead when the
// board does not negotiate adaptive synchronization).
func (ep *BoardEndpoint) Ack(boardCycle, swTick, lookahead uint64) error {
	m := Msg{
		Type:       MTTimeAck,
		BoardCycle: boardCycle,
		SWTick:     swTick,
		Lookahead:  lookahead,
		DataCount:  ep.dataSent,
	}
	ep.dataSent = 0
	return ep.sendFrame(ChanClock, m)
}

// Close tears the link down, so the simulator's pending wait on it fails
// instead of blocking.
func (ep *BoardEndpoint) Close() error { return ep.tr.Close() }

// FinishAck acknowledges shutdown, reporting final board time.
func (ep *BoardEndpoint) FinishAck(boardCycle, swTick uint64) error {
	defer ep.m.StopClock()
	return ep.sendFrame(ChanClock, Msg{Type: MTFinishAck, BoardCycle: boardCycle, SWTick: swTick})
}
