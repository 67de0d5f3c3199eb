package cosim

import (
	"fmt"
	"time"

	"repro/internal/hdlsim"
)

// SyncMode selects how the quantum rendezvous is scheduled in wall-clock
// time. Both modes exchange cross-traffic at quantum boundaries only, so
// both are deterministic; they differ in latency/overlap (see below).
type SyncMode int

const (
	// SyncAlternating is the reference mode: at every boundary the
	// simulator grants the board a quantum and blocks until the board's
	// time acknowledgement. HW quantum k+1 therefore observes board data
	// from quantum k: one quantum of board→HW latency, zero HW→board.
	SyncAlternating SyncMode = iota
	// SyncPipelined overlaps the two sides: the grant for quantum k is
	// sent immediately, but the simulator only waits for the *previous*
	// acknowledgement before simulating on. Board quantum k runs
	// concurrently with HW quantum k+1, cutting wall-clock time at the
	// cost of one extra quantum of board→HW latency (HW quantum k+2 sees
	// board quantum k). This mirrors the paper's concurrent intra-quantum
	// execution while remaining deterministic.
	SyncPipelined
)

// String implements fmt.Stringer.
func (m SyncMode) String() string {
	if m == SyncPipelined {
		return "pipelined"
	}
	return "alternating"
}

// HWEndpoint is the hardware-simulator side of the link. It implements
// hdlsim.DriverEndpoint, so it can be handed directly to
// Simulator.DriverSimulate.
type HWEndpoint struct {
	tr   Transport
	mode SyncMode

	// Counters of messages sent since the last grant; the next grant
	// carries them so the board drains exactly that many.
	dataSent uint32
	intSent  uint32

	// visible holds board DATA messages released to the kernel at the
	// last consumed acknowledgement.
	visible []hdlsim.DataMsg

	// outstanding acknowledgements not yet consumed (0 or 1).
	outstanding int

	lastBoardCycle uint64
	lastSWTick     uint64

	// lastLookahead is the board's promise from the most recent
	// acknowledgement: how many grant ticks can elapse before anything
	// becomes runnable board-side (see Msg.Lookahead).
	lastLookahead uint64
	// lead is the next grant's lead (see hdlsim.QuantumParty), carried
	// in the grant's Lookahead slot and set through SetLead.
	lead uint64

	// AckTimeout bounds every wait for board traffic (acknowledgements
	// and announced data). Zero blocks indefinitely. Set it to detect a
	// crashed or wedged board instead of hanging the simulation.
	AckTimeout time.Duration

	m  Metrics
	lv *live // optional live instruments, set by Observe
}

// NewHWEndpoint wraps a transport for the simulator side.
func NewHWEndpoint(tr Transport, mode SyncMode) *HWEndpoint {
	ep := &HWEndpoint{tr: tr, mode: mode}
	ep.m.Start()
	return ep
}

// Metrics returns the link counters (valid after the run), harvesting
// resilience/chaos counters from the transport stack.
func (ep *HWEndpoint) Metrics() *Metrics {
	ep.m.harvestLink(ep.tr)
	return &ep.m
}

// BoardTime returns the board's local cycle and software tick from the
// most recently consumed acknowledgement.
func (ep *HWEndpoint) BoardTime() (cycle, swTick uint64) {
	return ep.lastBoardCycle, ep.lastSWTick
}

// PollData implements hdlsim.DriverEndpoint: it returns the board messages
// released at the last quantum boundary. Per-cycle polling inside a
// quantum returns them on the first call and nothing afterwards.
func (ep *HWEndpoint) PollData() []hdlsim.DataMsg {
	if len(ep.visible) == 0 {
		return nil
	}
	out := ep.visible
	ep.visible = nil
	return out
}

// SendData implements hdlsim.DriverEndpoint.
func (ep *HWEndpoint) SendData(d hdlsim.DataMsg) error {
	m := Msg{Addr: d.Addr, Count: d.Count, Words: d.Words}
	switch d.Kind {
	case hdlsim.DataWrite:
		m.Type = MTDataWrite
	case hdlsim.DataReadResp:
		m.Type = MTDataReadResp
	default:
		return fmt.Errorf("cosim: simulator cannot send %v on DATA", d.Kind)
	}
	ep.dataSent++
	ep.m.DataSent++
	ep.m.BytesSent += uint64(m.WireSize())
	ep.lv.incDataSent()
	ep.lv.addBytes(uint64(m.WireSize()))
	return ep.tr.Send(ChanData, m)
}

// SendInterrupt implements hdlsim.DriverEndpoint.
func (ep *HWEndpoint) SendInterrupt(irq uint8) error {
	m := Msg{Type: MTInterrupt, IRQ: irq}
	ep.intSent++
	ep.m.IntSent++
	ep.m.BytesSent += uint64(m.WireSize())
	ep.lv.incIntSent()
	ep.lv.addBytes(uint64(m.WireSize()))
	return ep.tr.Send(ChanInt, m)
}

// sendGrant emits the CLOCK-port grant for the quantum just simulated,
// carrying the drain counts of the traffic sent during it.
func (ep *HWEndpoint) sendGrant(ticks, hwCycle uint64) error {
	grant := Msg{
		Type:      MTClockGrant,
		Ticks:     ticks,
		HWCycle:   hwCycle,
		Lookahead: ep.lead,
		DataCount: ep.dataSent,
		IntCount:  ep.intSent,
	}
	ep.dataSent, ep.intSent = 0, 0
	ep.m.BytesSent += uint64(grant.WireSize())
	ep.lv.addBytes(uint64(grant.WireSize()))
	if err := ep.tr.Send(ChanClock, grant); err != nil {
		return err
	}
	ep.outstanding++
	ep.m.SyncEvents++
	ep.m.TicksGranted += ticks
	ep.lv.addTicks(ticks)
	return nil
}

// Sync implements hdlsim.DriverEndpoint: the CLOCK-port rendezvous.
func (ep *HWEndpoint) Sync(ticks, hwCycle uint64) (uint64, error) {
	if err := ep.sendGrant(ticks, hwCycle); err != nil {
		return 0, err
	}
	if err := ep.awaitAck(); err != nil {
		return 0, err
	}
	return ep.lastBoardCycle, nil
}

// awaitAck completes a rendezvous whose grant is out. Pipelined mode
// keeps one grant in flight, so on the first sync there is nothing to
// wait for yet.
func (ep *HWEndpoint) awaitAck() error {
	if ep.mode == SyncPipelined && ep.outstanding <= 1 {
		return nil
	}
	if ep.outstanding > 0 {
		return ep.consumeAck()
	}
	return nil
}

// consumeAck blocks for one TimeAck and drains the DATA messages it
// announces into the visible buffer.
func (ep *HWEndpoint) consumeAck() error {
	t0 := time.Now() //cosim:wallclock -- sync-wait metric measures host blocking, not simulated time
	ack, err := RecvTimeout(ep.tr, ChanClock, ep.AckTimeout)
	wait := time.Since(t0) //cosim:wallclock -- sync-wait metric measures host blocking, not simulated time
	ep.m.SyncWait += wait
	ep.lv.observeSync(wait)
	if err != nil {
		return fmt.Errorf("cosim: waiting for board acknowledgement: %w", err)
	}
	if ack.Type != MTTimeAck {
		// A stray frame on CLOCK may carry pooled payloads; recycle them
		// before surfacing the protocol error.
		ack.Release()
		return fmt.Errorf("cosim: expected time-ack on CLOCK, got %v", ack.Type)
	}
	ep.lastBoardCycle = ack.BoardCycle
	ep.lastSWTick = ack.SWTick
	ep.lastLookahead = ack.Lookahead
	ack.Release() // ack frame carries only scalars
	ep.outstanding--
	for i := uint32(0); i < ack.DataCount; i++ {
		dm, err := RecvTimeout(ep.tr, ChanData, ep.AckTimeout)
		if err != nil {
			return err
		}
		ep.m.DataRecv++
		ep.lv.incDataRecv()
		conv, err := toKernelMsg(dm)
		if err != nil {
			return err
		}
		ep.visible = append(ep.visible, conv)
	}
	return nil
}

// TrafficPending implements hdlsim.AdaptiveEndpoint: it reports whether
// the simulator emitted any DATA or INT traffic since the last grant.
// The adaptive driver loop must rendezvous at the next boundary when it
// does, whatever the board promised, so each grant carries only the
// traffic of its last quantum and its lead places all of it.
func (ep *HWEndpoint) TrafficPending() bool {
	return ep.dataSent > 0 || ep.intSent > 0
}

// PeerLookahead implements hdlsim.AdaptiveEndpoint: the board's promise,
// in grant ticks, from the most recent acknowledgement. In pipelined
// mode the newest acknowledgement describes a quantum that is already
// one grant stale, so the promise cannot be trusted and the endpoint
// reports zero, disabling elongation.
func (ep *HWEndpoint) PeerLookahead() uint64 {
	if ep.mode == SyncPipelined {
		return NoLookahead
	}
	return ep.lastLookahead
}

// SetLead implements hdlsim.AdaptiveEndpoint: it records the lead, in
// grant ticks, to carry on the next grant.
func (ep *HWEndpoint) SetLead(ticks uint64) {
	ep.lead = ticks
}

func toKernelMsg(m Msg) (hdlsim.DataMsg, error) {
	switch m.Type {
	case MTDataWrite:
		return hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: m.Addr, Words: m.Words}, nil
	case MTDataReadReq:
		return hdlsim.DataMsg{Kind: hdlsim.DataReadReq, Addr: m.Addr, Count: m.Count}, nil
	default:
		return hdlsim.DataMsg{}, fmt.Errorf("cosim: unexpected %v from board on DATA", m.Type)
	}
}

// Finish implements hdlsim.DriverEndpoint: it drains any outstanding
// acknowledgement, tells the board the simulation is over, and waits for
// its final statistics.
func (ep *HWEndpoint) Finish(hwCycle uint64) error {
	// Stop the wall clock on every exit path so Metrics.Wall is valid
	// even when the shutdown handshake fails.
	defer ep.m.StopClock()
	for ep.outstanding > 0 {
		if err := ep.consumeAck(); err != nil {
			return err
		}
	}
	fin := Msg{Type: MTFinish, HWCycle: hwCycle}
	ep.m.BytesSent += uint64(fin.WireSize())
	ep.lv.addBytes(uint64(fin.WireSize()))
	if err := ep.tr.Send(ChanClock, fin); err != nil {
		return err
	}
	ack, err := RecvTimeout(ep.tr, ChanClock, ep.AckTimeout)
	if err != nil {
		return err
	}
	if ack.Type != MTFinishAck {
		ack.Release()
		return fmt.Errorf("cosim: expected finish-ack, got %v", ack.Type)
	}
	ep.lastBoardCycle = ack.BoardCycle
	ep.lastSWTick = ack.SWTick
	ack.Release() // finish-ack carries only scalars
	return nil
}

var _ hdlsim.DriverEndpoint = (*HWEndpoint)(nil)
