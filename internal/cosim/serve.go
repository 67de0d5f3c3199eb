package cosim

import (
	"fmt"
	"time"

	"repro/internal/hdlsim"
	"repro/internal/obs"
)

// Serve runs f as the granted party of the simulator at the other end of
// tr, the slave side of the v4 wire protocol, until the simulator
// finishes the run. Each clock grant takes the time manager's steps for
// a granted party, in its order: the grant's lead (when f is a
// LeadSink), Exchange with the grant's traffic, Step to the granted
// time, and Exchange(nil) to collect what the quantum emitted.
// Everything f emits goes on the wire ahead of the acknowledgement,
// which reports f's BoardTime (when f is a BoardClock; its virtual time
// otherwise, as the manager assumes for an in-process party) and its
// Lookahead. The finish frame calls f.Finish and is acknowledged with
// the final board time.
//
// The wire has no frame for an early stop, so a Step that stops short
// of its grant fails the run, as does an event the board side cannot
// send (an interrupt or a read response). On any error Serve finishes f
// and closes tr, so the simulator's wait for the acknowledgement fails
// instead of blocking. A non-nil reg publishes the link's counters and
// rendezvous histogram under the side label.
func Serve(tr Transport, f Federate, reg *obs.Registry, side string) error {
	ep := newEndpoint(tr, "board", boardKinds, hwKinds)
	if reg != nil {
		ep.ObserveAs(reg, side)
	}
	return ep.serve(f)
}

// serve is Serve on a board-side endpoint.
func (ep *endpoint) serve(f Federate) error {
	defer ep.m.StopClock()
	at, err := ep.grants(f)
	if ferr := f.Finish(at); err == nil {
		err = ferr
	}
	if err == nil {
		cycle, swTick := boardTime(f, at)
		err = ep.sendFrame(ChanClock, Msg{Type: MTFinishAck, BoardCycle: cycle, SWTick: swTick})
	}
	if err != nil {
		ep.tr.Close()
	}
	return err
}

// grants runs f through the simulator's grants. It returns the final
// time of the finish frame, or, with an error, the time f reached.
func (ep *endpoint) grants(f Federate) (SimTime, error) {
	sink, _ := f.(LeadSink)
	var cur SimTime
	var traffic []hdlsim.DataMsg
	for {
		t0 := time.Now() //cosim:wallclock -- sync-wait metric measures host blocking, not simulated time
		g, err := ep.tr.Recv(ChanClock)
		wait := time.Since(t0) //cosim:wallclock -- sync-wait metric measures host blocking, not simulated time
		ep.m.SyncWait += wait
		if err != nil {
			return cur, err
		}
		switch g.Type {
		case MTFinish:
			return SimTime(g.HWCycle), nil
		case MTClockGrant:
		default:
			return cur, fmt.Errorf("cosim: expected clock-grant on CLOCK, got %v", g.Type)
		}
		ep.lv.observeSync(wait)
		ep.lv.addTicks(g.Ticks)
		traffic, err = ep.drain(traffic[:0], ChanData, g.DataCount, 0)
		if err == nil {
			traffic, err = ep.drain(traffic, ChanInt, g.IntCount, 0)
		}
		if err != nil {
			return cur, err
		}
		if sink != nil {
			sink.SetGrantLead(g.Lookahead)
		}
		if err := ep.exchange(f, traffic); err != nil {
			return cur, err
		}
		until := cur + SimTime(g.Ticks)
		reached, err := f.Step(until)
		if err != nil {
			return cur, err
		}
		if reached != until {
			return cur, fmt.Errorf("cosim: served party stopped at %d, short of its grant to %d; the wire has no frame for an early stop", reached, until)
		}
		cur = until
		if err := ep.exchange(f, nil); err != nil {
			return cur, err
		}
		cycle, swTick := boardTime(f, cur)
		ack := Msg{Type: MTTimeAck, BoardCycle: cycle, SWTick: swTick, Lookahead: f.Lookahead(), DataCount: ep.dataSent}
		ep.dataSent = 0
		if err := ep.sendFrame(ChanClock, ack); err != nil {
			return cur, err
		}
	}
}

// boardTime is f's BoardTime, or, when f has no board clock, its virtual
// time at as the cycle, which the manager assumes for such a party
// in-process.
func boardTime(f Federate, at SimTime) (cycle, swTick uint64) {
	if c, ok := f.(BoardClock); ok {
		return c.BoardTime()
	}
	return uint64(at), 0
}

// exchange hands f its inbound events and puts what f returns on the
// wire.
func (ep *endpoint) exchange(f Federate, in []hdlsim.DataMsg) error {
	out, err := f.Exchange(in)
	if err != nil {
		return err
	}
	return ep.sendAll(out)
}
