package cosim

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// TraceTransport wraps a Transport and writes one line per message to a
// log, timestamped with wall-clock time since creation. It is the
// protocol-level debugging aid for co-simulation sessions: with both
// sides traced, the interleaving of grants, acknowledgements, register
// traffic and interrupts can be reconstructed exactly.
//
// Format (stable, greppable):
//
//	+0.001234s SEND CLOCK clock-grant ticks=1000 hw=2000 data=3 int=1
//	+0.001250s RECV DATA  data-write addr=0x012 words=20
type TraceTransport struct {
	inner Transport
	mu    sync.Mutex
	w     io.Writer
	start time.Time
}

// NewTraceTransport wraps inner, logging to w.
func NewTraceTransport(inner Transport, w io.Writer) *TraceTransport {
	return &TraceTransport{inner: inner, w: w, start: time.Now()} //cosim:wallclock -- trace timestamps are debugging metadata, not simulated state
}

func (t *TraceTransport) log(dir string, ch Channel, m Msg) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintf(t.w, "+%.6fs %s %-5s %s\n",
		time.Since(t.start).Seconds(), dir, ch, SummarizeMsg(m)) //cosim:wallclock -- trace timestamps are debugging metadata, not simulated state
}

// Send implements Transport.
func (t *TraceTransport) Send(ch Channel, m Msg) error {
	t.log("SEND", ch, m)
	return t.inner.Send(ch, m)
}

// Recv implements Transport.
func (t *TraceTransport) Recv(ch Channel) (Msg, error) {
	m, err := t.inner.Recv(ch)
	if err == nil {
		t.log("RECV", ch, m)
	}
	return m, err
}

// TryRecv implements Transport.
func (t *TraceTransport) TryRecv(ch Channel) (Msg, bool, error) {
	m, ok, err := t.inner.TryRecv(ch)
	if ok && err == nil {
		t.log("RECV", ch, m)
	}
	return m, ok, err
}

// Close implements Transport.
func (t *TraceTransport) Close() error { return t.inner.Close() }

// Unwrap implements Unwrapper.
func (t *TraceTransport) Unwrap() Transport { return t.inner }

// SummarizeMsg renders a message as a one-line, field-labelled summary.
func SummarizeMsg(m Msg) string {
	switch m.Type {
	case MTHello:
		return fmt.Sprintf("hello v%d", m.Version)
	case MTClockGrant:
		return fmt.Sprintf("clock-grant ticks=%d hw=%d data=%d int=%d lead=%d",
			m.Ticks, m.HWCycle, m.DataCount, m.IntCount, m.Lookahead)
	case MTTimeAck:
		return fmt.Sprintf("time-ack board=%d tick=%d data=%d la=%d",
			m.BoardCycle, m.SWTick, m.DataCount, m.Lookahead)
	case MTFinish:
		return fmt.Sprintf("finish hw=%d", m.HWCycle)
	case MTFinishAck:
		return fmt.Sprintf("finish-ack board=%d tick=%d", m.BoardCycle, m.SWTick)
	case MTInterrupt:
		return fmt.Sprintf("interrupt irq=%d", m.IRQ)
	case MTDataWrite:
		return fmt.Sprintf("data-write addr=%#x words=%d", m.Addr, len(m.Words))
	case MTDataReadReq:
		return fmt.Sprintf("data-read-req addr=%#x count=%d", m.Addr, m.Count)
	case MTDataReadResp:
		return fmt.Sprintf("data-read-resp addr=%#x words=%d", m.Addr, len(m.Words))
	case MTSessionData:
		return fmt.Sprintf("session-data seq=%d crc=%08x raw=%d", m.Seq, m.Crc, len(m.Raw))
	case MTSessionAck:
		return fmt.Sprintf("session-ack seq=%d", m.Seq)
	case MTSessionNack:
		return fmt.Sprintf("session-nack seq=%d", m.Seq)
	case MTHeartbeat:
		return fmt.Sprintf("heartbeat n=%d", m.Seq)
	case MTBatch:
		return fmt.Sprintf("batch n=%d raw=%d", m.Count, len(m.Raw))
	default:
		return m.Type.String()
	}
}
