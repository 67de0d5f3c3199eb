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

// HWEndpoint is the hardware-simulator side of the link: the
// grant-issuing end of the v3 wire protocol, over any transport kind. It
// implements hdlsim.DriverEndpoint (the DATA and INT ports, through the
// Send and drain it shares with Serve's board side), so a kernel
// can be stepped directly over it, and Federate, so the time manager sees
// the remote process — typically a board — as a granted party: Exchange
// puts inbound events on the DATA/INT channels, Step grants the quantum
// on CLOCK and waits for the acknowledgement, and the acknowledgement's
// DATA traffic flows back into the federation.
//
// Because forwarded events hit the wire in the same channel order as
// mid-quantum sends from a kernel stepped directly over the endpoint
// (DATA/INT frames, then the CLOCK grant carrying their drain counts), a
// two-party federation puts the same bytes on the wire as that kernel
// would.
type HWEndpoint struct {
	endpoint
	mode SyncMode

	cur   SimTime // time granted so far
	begun bool    // BeginStep already sent the grant for the next Step

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
	// lead is the next grant's lead (see LeadSink), carried in the
	// grant's Lookahead slot and set through SetGrantLead.
	lead uint64

	// AckTimeout bounds every wait for board traffic (acknowledgements
	// and announced data). Zero blocks indefinitely. Set it to detect a
	// crashed or wedged board instead of hanging the simulation.
	AckTimeout time.Duration
}

// NewHWEndpoint wraps a transport for the simulator side.
func NewHWEndpoint(tr Transport, mode SyncMode) *HWEndpoint {
	return &HWEndpoint{endpoint: newEndpoint(tr, "hw", hwKinds, boardKinds), mode: mode}
}

// BoardTime implements BoardClock: the board's local cycle and software
// tick from the most recently consumed acknowledgement.
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

// Exchange implements Federate: inbound events are sent on the wire
// immediately (the grant that follows carries their drain counts), and
// the DATA traffic announced by the last acknowledgement is returned.
func (ep *HWEndpoint) Exchange(in []hdlsim.DataMsg) ([]hdlsim.DataMsg, error) {
	if err := ep.sendAll(in); err != nil {
		return nil, err
	}
	return ep.PollData(), nil
}

// BeginStep implements SplitStepper: it sends the CLOCK grant up to
// until without waiting, so the manager can launch all remote parties'
// quanta before collecting any acknowledgement.
func (ep *HWEndpoint) BeginStep(until SimTime) error {
	if until < ep.cur {
		return fmt.Errorf("cosim: step backwards (%d < %d)", until, ep.cur)
	}
	if err := ep.sendGrant(uint64(until-ep.cur), uint64(until)); err != nil {
		return err
	}
	ep.begun = true
	return nil
}

// Step implements Federate: grant (unless BeginStep already did) and
// wait for the acknowledgement; in pipelined mode the wait is for the
// previous grant's acknowledgement, so one grant stays in flight.
func (ep *HWEndpoint) Step(until SimTime) (SimTime, error) {
	if !ep.begun {
		if err := ep.BeginStep(until); err != nil {
			return ep.cur, err
		}
	}
	ep.begun = false
	ep.cur = until
	return until, ep.awaitAck()
}

// Done implements Federate: a wire party never ends the run on its own.
func (ep *HWEndpoint) Done() bool { return false }

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
	if err := ep.sendFrame(ChanClock, grant); err != nil {
		return err
	}
	ep.outstanding++
	ep.m.SyncEvents++
	ep.m.TicksGranted += ticks
	ep.lv.addTicks(ticks)
	return nil
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
	ep.visible, err = ep.drain(ep.visible, ChanData, ack.DataCount, ep.AckTimeout)
	return err
}

// Lookahead implements Federate: the board's promise, in grant ticks,
// from the most recent acknowledgement. In pipelined mode the newest
// acknowledgement describes a quantum that is already one grant stale,
// so the promise cannot be trusted and the endpoint reports zero,
// disabling elongation.
func (ep *HWEndpoint) Lookahead() uint64 {
	if ep.mode == SyncPipelined {
		return NoLookahead
	}
	return ep.lastLookahead
}

// SetGrantLead implements LeadSink: the lead, in grant ticks, carried on
// the next grant.
func (ep *HWEndpoint) SetGrantLead(ticks uint64) { ep.lead = ticks }

// Finish implements Federate: the MTFinish/MTFinishAck shutdown
// handshake at final time at. It drains any outstanding acknowledgement,
// tells the board the simulation is over, and waits for its final
// statistics.
func (ep *HWEndpoint) Finish(at SimTime) error {
	// Stop the wall clock on every exit path so Metrics.Wall is valid
	// even when the shutdown handshake fails.
	defer ep.m.StopClock()
	for ep.outstanding > 0 {
		if err := ep.consumeAck(); err != nil {
			return err
		}
	}
	if err := ep.sendFrame(ChanClock, Msg{Type: MTFinish, HWCycle: uint64(at)}); err != nil {
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
var _ Federate = (*HWEndpoint)(nil)
var _ SplitStepper = (*HWEndpoint)(nil)
var _ LeadSink = (*HWEndpoint)(nil)
var _ BoardClock = (*HWEndpoint)(nil)
