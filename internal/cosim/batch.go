package cosim

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// maxBatchPayload bounds the concatenated inner bodies of one MTBatch so
// the batch frame — plus a session envelope's 17-byte header and 24-byte
// ack vector on top — still fits in maxFrameBody.
const maxBatchPayload = maxFrameBody - 64

// BatchStats is a snapshot of a BatchTransport's coalescing counters.
type BatchStats struct {
	// Flushes counts MTBatch frames sent (each replacing ≥2 sends).
	Flushes uint64
	// Batched counts messages that rode inside an MTBatch frame.
	Batched uint64
	// Bypassed counts messages sent as plain frames: CLOCK traffic and
	// flushes that held a single message (wrapping one message would
	// only add overhead).
	Bypassed uint64
	// Opened counts MTBatch frames received and spliced open.
	Opened uint64
}

// BatchTransport is the wire-frame coalescing layer of the adaptive hot
// path: DATA and INT sends are buffered and emitted as one MTBatch frame
// per channel when the quantum-boundary CLOCK message goes out, so a
// quantum costs one frame per active channel instead of one per message.
// On the receive side, MTBatch frames are spliced transparently back into
// individual messages, in order.
//
// Stack it on top of the session layer (BuildStack does): one batch then
// rides in a single sequenced/CRC'd/acknowledged MTSessionData envelope,
// so the resilience cost is also paid once per flush. Both sides of a
// link must enable batching together — a batch frame reaching a bare
// endpoint is a protocol error.
//
// The flush-on-CLOCK policy is exactly the protocol's delivery contract:
// cross-traffic is only observed at quantum boundaries, and every
// boundary is marked by a CLOCK message sent after the traffic it
// announces (grants carry DataCount/IntCount; acks carry DataCount).
type BatchTransport struct {
	inner Transport

	pend      [numChannels][]Msg // buffered sends, flushed on CLOCK traffic
	pendBytes [numChannels]int
	inbox     [numChannels][]Msg // spliced-open batches awaiting Recv
	inboxHead [numChannels]int   // consumed prefix; backing reused when drained
	scratch   []Msg              // splitBatch scratch, reused per accept

	flushes  atomic.Uint64
	batched  atomic.Uint64
	bypassed atomic.Uint64
	opened   atomic.Uint64

	side string // observability label, set by the endpoint's Observe walk
}

// NewBatchTransport wraps inner in the coalescing layer.
func NewBatchTransport(inner Transport) *BatchTransport {
	return &BatchTransport{inner: inner, side: "link"}
}

// Send implements Transport. DATA and INT messages are buffered; CLOCK
// messages flush every buffered channel, then pass through, preserving
// the boundary ordering the protocol's drain counts rely on.
func (t *BatchTransport) Send(ch Channel, m Msg) error {
	if ch == ChanClock {
		if err := t.Flush(); err != nil {
			return err
		}
		t.bypassed.Add(1)
		return t.inner.Send(ch, m)
	}
	sz := m.WireSize() // frame prefix ≈ the batch's per-message length prefix
	if sz > maxBatchPayload {
		// Too large to ever share a batch: flush what's pending on this
		// channel (order!) and send it as its own frame.
		if err := t.flushChan(ch); err != nil {
			return err
		}
		t.bypassed.Add(1)
		return t.inner.Send(ch, m)
	}
	if t.pendBytes[ch]+sz > maxBatchPayload {
		if err := t.flushChan(ch); err != nil {
			return err
		}
	}
	t.pend[ch] = append(t.pend[ch], m)
	t.pendBytes[ch] += sz
	return nil
}

// Flush emits every buffered channel's pending messages. It is called
// automatically on CLOCK sends and on Close; call it directly only when
// driving the transport outside the grant/ack protocol.
func (t *BatchTransport) Flush() error {
	for ch := Channel(0); ch < numChannels; ch++ {
		if err := t.flushChan(ch); err != nil {
			return err
		}
	}
	return nil
}

// flushChan emits channel ch's buffer: nothing for an empty buffer, the
// bare message for a single entry, one MTBatch frame otherwise.
func (t *BatchTransport) flushChan(ch Channel) error {
	pend, size := t.pend[ch], t.pendBytes[ch]
	if len(pend) == 0 {
		return nil
	}
	t.pend[ch] = t.pend[ch][:0]
	t.pendBytes[ch] = 0
	if len(pend) == 1 {
		t.bypassed.Add(1)
		m := pend[0]
		pend[0] = Msg{} // drop the buffered copy's payload references
		return t.inner.Send(ch, m)
	}
	// Each entry's length prefix is the size its frame prefix added to
	// pendBytes, so the body is allocated at its exact size.
	raw := make([]byte, 0, size)
	for i := range pend {
		lenAt := len(raw)
		raw = append(raw, 0, 0, 0, 0)
		raw = pend[i].appendBody(raw)
		binary.LittleEndian.PutUint32(raw[lenAt:], uint32(len(raw)-lenAt-4))
		pend[i] = Msg{} // bodies copied; drop payload references
	}
	t.flushes.Add(1)
	t.batched.Add(uint64(len(pend)))
	return t.inner.Send(ch, Msg{Type: MTBatch, Count: uint32(len(pend)), Raw: raw})
}

// splitBatch validates and opens one MTBatch into its inner messages,
// appending them to out (callers may pass a reused scratch slice; each
// inner message owns its payloads, so the batch body is not aliased).
func splitBatch(m Msg, out []Msg) ([]Msg, error) {
	p := m.Raw
	start := len(out)
	// A malformed batch aborts mid-decode; the caller keeps the truncated
	// slice so its scratch backing array survives.
	fail := func(err error) ([]Msg, error) { return out[:start], err }
	for len(p) > 0 {
		if len(p) < 4 {
			return fail(fmt.Errorf("cosim: truncated batch entry header"))
		}
		n := binary.LittleEndian.Uint32(p)
		if n == 0 || int(n) > len(p)-4 {
			return fail(fmt.Errorf("cosim: implausible batch entry length %d", n))
		}
		inner, err := decodeBody(p[4 : 4+n])
		if err != nil {
			return fail(fmt.Errorf("cosim: batch entry: %w", err))
		}
		if inner.Type == MTBatch {
			return fail(fmt.Errorf("cosim: nested batch"))
		}
		out = append(out, inner)
		p = p[4+n:]
	}
	if uint32(len(out)-start) != m.Count {
		return fail(fmt.Errorf("cosim: batch count %d but %d entries", m.Count, len(out)-start))
	}
	return out, nil
}

// accept splices batch frames open; other messages pass through.
func (t *BatchTransport) accept(ch Channel, m Msg) (Msg, error) {
	if m.Type != MTBatch {
		return m, nil
	}
	inner, err := splitBatch(m, t.scratch[:0])
	t.scratch = inner[:0]
	if err != nil {
		return Msg{}, err
	}
	t.opened.Add(1)
	t.inbox[ch] = append(t.inbox[ch], inner...)
	return t.popInbox(ch)
}

// inboxLen is the number of spliced-open messages awaiting Recv on ch.
func (t *BatchTransport) inboxLen(ch Channel) int {
	return len(t.inbox[ch]) - t.inboxHead[ch]
}

func (t *BatchTransport) popInbox(ch Channel) (Msg, error) {
	if t.inboxLen(ch) == 0 {
		return Msg{}, fmt.Errorf("cosim: empty batch on %v", ch)
	}
	m := t.inbox[ch][t.inboxHead[ch]]
	t.inbox[ch][t.inboxHead[ch]] = Msg{}
	t.inboxHead[ch]++
	if t.inboxHead[ch] == len(t.inbox[ch]) {
		// Drained: rewind so the backing array is reused instead of the
		// slice creeping forward one header per pop.
		t.inbox[ch] = t.inbox[ch][:0]
		t.inboxHead[ch] = 0
	}
	return m, nil
}

// Recv implements Transport.
func (t *BatchTransport) Recv(ch Channel) (Msg, error) {
	if t.inboxLen(ch) > 0 {
		return t.popInbox(ch)
	}
	m, err := t.inner.Recv(ch)
	if err != nil {
		return m, err
	}
	return t.accept(ch, m)
}

// TryRecv implements Transport.
func (t *BatchTransport) TryRecv(ch Channel) (Msg, bool, error) {
	if t.inboxLen(ch) > 0 {
		m, err := t.popInbox(ch)
		return m, err == nil, err
	}
	m, ok, err := t.inner.TryRecv(ch)
	if !ok || err != nil {
		return m, ok, err
	}
	m, err = t.accept(ch, m)
	return m, err == nil, err
}

// recvTimeout implements the bounded-wait capability.
func (t *BatchTransport) recvTimeout(ch Channel, d time.Duration) (Msg, error) {
	if t.inboxLen(ch) > 0 {
		return t.popInbox(ch)
	}
	m, err := RecvTimeout(t.inner, ch, d)
	if err != nil {
		return m, err
	}
	return t.accept(ch, m)
}

// Close implements Transport. Buffered unflushed messages are dropped —
// by the flush-on-CLOCK policy there are none on any orderly shutdown
// path (Finish/FinishAck are CLOCK messages).
func (t *BatchTransport) Close() error { return t.inner.Close() }

// Unwrap implements Unwrapper.
func (t *BatchTransport) Unwrap() Transport { return t.inner }

// BatchStats returns a snapshot of the coalescing counters.
func (t *BatchTransport) BatchStats() BatchStats {
	return BatchStats{
		Flushes:  t.flushes.Load(),
		Batched:  t.batched.Load(),
		Bypassed: t.bypassed.Load(),
		Opened:   t.opened.Load(),
	}
}

// BatchStatsOf walks a transport's wrapper chain and returns the first
// batch layer's counters; a stack without batching reports zeros.
func BatchStatsOf(tr Transport) BatchStats {
	for t := tr; t != nil; {
		if b, ok := t.(*BatchTransport); ok {
			return b.BatchStats()
		}
		u, ok := t.(Unwrapper)
		if !ok {
			break
		}
		t = u.Unwrap()
	}
	return BatchStats{}
}

// setObserveSide labels this layer's metrics; the endpoint Observe walk
// calls it before Observe.
func (t *BatchTransport) setObserveSide(side string) { t.side = side }

// Observe implements Instrumentable: live coalescing counters, labelled
// by side.
func (t *BatchTransport) Observe(reg *obs.Registry) {
	name := func(base string) string { return obs.Name(base, "side", t.side) }
	reg.CounterFunc(name("cosim_batch_flushes_total"), t.flushes.Load)
	reg.CounterFunc(name("cosim_batch_msgs_total"), t.batched.Load)
	reg.CounterFunc(name("cosim_batch_bypassed_total"), t.bypassed.Load)
	reg.CounterFunc(name("cosim_batch_opened_total"), t.opened.Load)
}

var (
	_ Transport      = (*BatchTransport)(nil)
	_ recvTimeouter  = (*BatchTransport)(nil)
	_ Unwrapper      = (*BatchTransport)(nil)
	_ Instrumentable = (*BatchTransport)(nil)
	_ sideSetter     = (*BatchTransport)(nil)
)
