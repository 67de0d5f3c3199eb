package cosim

import (
	"fmt"
	"time"

	"repro/internal/hdlsim"
	"repro/internal/obs"
)

// kindSet is a set of event kinds, bit k ⇔ hdlsim.DataKind k.
type kindSet uint8

func (s kindSet) has(k hdlsim.DataKind) bool { return s&(1<<k) != 0 }

// The kinds each side puts on the wire: the board posts writes and
// split-phase read requests; the simulator posts writes, answers reads
// and raises interrupts.
const (
	boardKinds kindSet = 1<<hdlsim.DataWrite | 1<<hdlsim.DataReadReq
	hwKinds    kindSet = 1<<hdlsim.DataWrite | 1<<hdlsim.DataReadResp | 1<<hdlsim.DataInterrupt
)

// frameTypes maps each event kind to its wire frame type.
var frameTypes = [...]MsgType{
	hdlsim.DataWrite:     MTDataWrite,
	hdlsim.DataReadReq:   MTDataReadReq,
	hdlsim.DataReadResp:  MTDataReadResp,
	hdlsim.DataInterrupt: MTInterrupt,
}

// event maps a DATA or INT frame to its event; ok is false for any other
// frame type.
func event(m Msg) (d hdlsim.DataMsg, ok bool) {
	for k, t := range frameTypes {
		if t == m.Type && k != 0 {
			return hdlsim.DataMsg{Kind: hdlsim.DataKind(k), IRQ: m.IRQ, Addr: m.Addr, Count: m.Count, Words: m.Words}, true
		}
	}
	return d, false
}

// channelOf is the channel an event kind travels on.
func channelOf(k hdlsim.DataKind) Channel {
	if k == hdlsim.DataInterrupt {
		return ChanInt
	}
	return ChanData
}

// endpoint is the half of the v4 wire protocol both sides share: the
// transport, the counted DATA/INT send path, the drain of the frames a
// CLOCK frame announces, and the link metrics. A side sends only the
// kinds in sends and accepts only those its peer sends.
type endpoint struct {
	tr    Transport
	side  string // "hw" or "board": named in errors, Observe's label
	sends kindSet
	recvs kindSet

	// Messages sent since the last CLOCK frame of this side; the next
	// one carries the counts so the peer drains exactly that many.
	dataSent uint32
	intSent  uint32

	m  Metrics
	lv *live // optional live instruments, set by Observe
}

func newEndpoint(tr Transport, side string, sends, recvs kindSet) endpoint {
	ep := endpoint{tr: tr, side: side, sends: sends, recvs: recvs}
	ep.m.Start()
	return ep
}

// Metrics returns the link counters (valid after the run), harvesting
// resilience/chaos counters from the transport stack.
func (ep *endpoint) Metrics() *Metrics {
	ep.m.harvestLink(ep.tr)
	return &ep.m
}

// Observe publishes the endpoint's hot-path counters and the CLOCK
// rendezvous latency histogram into reg under its side label. Call it
// before the run starts; it is not safe to call concurrently with the
// run.
func (ep *endpoint) Observe(reg *obs.Registry) { ep.ObserveAs(reg, ep.side) }

// ObserveAs is Observe with an explicit side label — a federation
// publishes each wire party's link under its federate name, so per-party
// rendezvous latency and traffic counters stay distinguishable.
func (ep *endpoint) ObserveAs(reg *obs.Registry, side string) {
	ep.lv = newLive(reg, side)
	observeTransportStack(reg, ep.tr, side)
}

// Send puts one event on the wire, interrupts on INT and the rest on
// DATA, and counts it for the next CLOCK frame. It takes ownership of
// d.Words. A side refuses the kinds it cannot send.
func (ep *endpoint) Send(d hdlsim.DataMsg) error {
	if !ep.sends.has(d.Kind) {
		return fmt.Errorf("cosim: the %s side cannot send %v", ep.side, d.Kind)
	}
	m := Msg{Type: frameTypes[d.Kind], IRQ: d.IRQ, Addr: d.Addr, Count: d.Count, Words: d.Words}
	ch := channelOf(d.Kind)
	if ch == ChanInt {
		ep.intSent++
		ep.m.IntSent++
		ep.lv.incIntSent()
	} else {
		ep.dataSent++
		ep.m.DataSent++
		ep.lv.incDataSent()
	}
	return ep.sendFrame(ch, m)
}

// sendAll sends each of events in order (see Send).
func (ep *endpoint) sendAll(events []hdlsim.DataMsg) error {
	for _, d := range events {
		if err := ep.Send(d); err != nil {
			return err
		}
	}
	return nil
}

// sendFrame counts m's wire bytes and sends it on ch.
func (ep *endpoint) sendFrame(ch Channel, m Msg) error {
	n := uint64(m.WireSize())
	ep.m.BytesSent += n
	ep.lv.addBytes(n)
	return ep.tr.Send(ch, m)
}

// drain receives the n frames a CLOCK frame announced on ch and appends
// their events to dst, refusing a frame that does not belong on ch or a
// kind the peer cannot send. Zero timeout blocks indefinitely.
func (ep *endpoint) drain(dst []hdlsim.DataMsg, ch Channel, n uint32, timeout time.Duration) ([]hdlsim.DataMsg, error) {
	for i := uint32(0); i < n; i++ {
		m, err := RecvTimeout(ep.tr, ch, timeout)
		if err != nil {
			return dst, err
		}
		d, ok := event(m)
		if !ok || channelOf(d.Kind) != ch || !ep.recvs.has(d.Kind) {
			return dst, fmt.Errorf("cosim: unexpected %v on %v at the %s side", m.Type, ch, ep.side)
		}
		if ch == ChanInt {
			ep.m.IntRecv++
			ep.lv.incIntRecv()
		} else {
			ep.m.DataRecv++
			ep.lv.incDataRecv()
		}
		dst = append(dst, d)
	}
	return dst, nil
}
