package cosim

import (
	"fmt"
	"time"
)

// Grant is one quantum handed to the board: the number of virtual ticks to
// run plus the cross-traffic the simulator emitted during its own quantum,
// already drained from the DATA and INT channels in deterministic order.
type Grant struct {
	// Ticks is the number of virtual ticks the board may advance.
	Ticks uint64
	// HWCycle is the simulator's cycle count at the grant.
	HWCycle uint64
	// Writes are simulator-initiated register writes (posted data).
	Writes []RegBlock
	// ReadResps answer read requests the board posted in an earlier
	// quantum.
	ReadResps []RegBlock
	// Interrupts lists interrupt lines raised during the quantum, in
	// delivery order.
	Interrupts []uint8
	// Lead is where the traffic lands: the board runs Lead ticks, applies
	// Writes, ReadResps and Interrupts, then runs the rest (see
	// Msg.Lookahead). Lead ≤ Ticks.
	Lead uint64
	// Finished is true when the simulator ended the co-simulation; all
	// other fields are zero.
	Finished bool
}

// RegBlock is a contiguous block of register words starting at Addr.
type RegBlock struct {
	Addr  uint32
	Words []uint32
}

// BoardEndpoint is the board side of the link: it consumes clock grants,
// exposes the tunnelled device traffic, and reports board time back. It is
// driven by the board's co-simulation loop (see package board).
type BoardEndpoint struct {
	tr       Transport
	dataSent uint32
	m        Metrics
	lv       *live // optional live instruments, set by Observe
}

// NewBoardEndpoint wraps a transport for the board side.
func NewBoardEndpoint(tr Transport) *BoardEndpoint {
	ep := &BoardEndpoint{tr: tr}
	ep.m.Start()
	return ep
}

// Metrics returns the link counters, harvesting resilience/chaos
// counters from the transport stack.
func (ep *BoardEndpoint) Metrics() *Metrics {
	ep.m.harvestLink(ep.tr)
	return &ep.m
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
	for i := uint32(0); i < m.DataCount; i++ {
		dm, err := ep.tr.Recv(ChanData) //cosim:owns -- dm.Words is retained in the returned Grant; the board consumes it within the quantum
		if err != nil {
			return Grant{}, err
		}
		ep.m.DataRecv++
		ep.lv.incDataRecv()
		blk := RegBlock{Addr: dm.Addr, Words: dm.Words}
		switch dm.Type {
		case MTDataWrite:
			g.Writes = append(g.Writes, blk)
		case MTDataReadResp:
			g.ReadResps = append(g.ReadResps, blk)
		default:
			dm.Release()
			return Grant{}, fmt.Errorf("cosim: unexpected %v from simulator on DATA", dm.Type)
		}
	}
	for i := uint32(0); i < m.IntCount; i++ {
		im, err := ep.tr.Recv(ChanInt)
		if err != nil {
			return Grant{}, err
		}
		if im.Type != MTInterrupt {
			im.Release()
			return Grant{}, fmt.Errorf("cosim: expected interrupt on INT, got %v", im.Type)
		}
		ep.m.IntRecv++
		ep.lv.incIntRecv()
		g.Interrupts = append(g.Interrupts, im.IRQ)
		im.Release() // interrupt frame carries only scalars
	}
	return g, nil
}

// PostWrite sends a board-initiated register write to the simulated
// device. It is delivered to the simulator at the next quantum boundary.
func (ep *BoardEndpoint) PostWrite(addr uint32, words []uint32) error {
	m := Msg{Type: MTDataWrite, Addr: addr, Words: words}
	ep.dataSent++
	ep.m.DataSent++
	ep.m.BytesSent += uint64(m.WireSize())
	ep.lv.incDataSent()
	ep.lv.addBytes(uint64(m.WireSize()))
	return ep.tr.Send(ChanData, m)
}

// PostReadReq sends a split-phase read request for count words at addr;
// the response arrives in a later Grant's ReadResps (one-to-two quantum
// latency, like any posted bus bridge).
func (ep *BoardEndpoint) PostReadReq(addr, count uint32) error {
	m := Msg{Type: MTDataReadReq, Addr: addr, Count: count}
	ep.dataSent++
	ep.m.DataSent++
	ep.m.BytesSent += uint64(m.WireSize())
	ep.lv.incDataSent()
	ep.lv.addBytes(uint64(m.WireSize()))
	return ep.tr.Send(ChanData, m)
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
	ep.m.BytesSent += uint64(m.WireSize())
	ep.lv.addBytes(uint64(m.WireSize()))
	return ep.tr.Send(ChanClock, m)
}

// FinishAck acknowledges shutdown, reporting final board time.
func (ep *BoardEndpoint) FinishAck(boardCycle, swTick uint64) error {
	defer ep.m.StopClock()
	m := Msg{Type: MTFinishAck, BoardCycle: boardCycle, SWTick: swTick}
	ep.m.BytesSent += uint64(m.WireSize())
	ep.lv.addBytes(uint64(m.WireSize()))
	return ep.tr.Send(ChanClock, m)
}
