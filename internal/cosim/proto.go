// Package cosim implements the co-simulation link of Fummi et al. (DATE
// 2005): three logical communication channels — a DATA port for register
// traffic, an INT port carrying interrupt notifications, and a CLOCK port
// carrying the timing information that keeps the hardware simulator and
// the board synchronized — plus the virtual-tick synchronization protocol
// built on them.
//
// The hardware simulator is the master of simulated time: every T_sync
// clock cycles it sends a clock grant over the CLOCK channel; the board
// advances its software by the granted number of virtual ticks and answers
// with its local time. Cross-traffic (register writes, read requests,
// interrupts) is exchanged at these quantum boundaries, which makes the
// co-simulation deterministic regardless of transport (TCP or in-process)
// and of whether the two sides execute their quanta alternately or
// concurrently.
package cosim

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// ProtocolVersion guards against mismatched endpoints. Version 2 added
// the lookahead fields on clock grants and time acknowledgements and the
// MTBatch coalescing frame. Version 3 turned the clock grant's lookahead
// slot into the lead: a version-2 board would apply the grant's traffic
// before the lead ticks instead of after them. Version 4 put the
// sender's cumulative acks at the front of every session envelope's
// body, so a version-3 session would read them as the inner message.
const ProtocolVersion uint16 = 4

// Channel identifies one of the three logical ports of the link.
type Channel uint8

const (
	// ChanData is the DATA port: register writes, read requests and read
	// responses.
	ChanData Channel = iota
	// ChanInt is the INT port: hardware→board interrupt notifications.
	ChanInt
	// ChanClock is the CLOCK port: grants, time acknowledgements and
	// shutdown.
	ChanClock
	numChannels
)

// String implements fmt.Stringer.
func (c Channel) String() string {
	switch c {
	case ChanData:
		return "DATA"
	case ChanInt:
		return "INT"
	case ChanClock:
		return "CLOCK"
	default:
		return fmt.Sprintf("Channel(%d)", uint8(c))
	}
}

// MsgType discriminates protocol messages.
type MsgType uint8

const (
	// MTHello opens each channel (version handshake).
	MTHello MsgType = iota + 1
	// MTClockGrant (CLOCK, HW→board): run for Ticks virtual ticks; exactly
	// DataCount DATA messages and IntCount INT messages sent during the
	// simulator's preceding quantum must be drained first, and they take
	// effect after the first Lookahead (the lead) of those ticks.
	MTClockGrant
	// MTTimeAck (CLOCK, board→HW): the board finished its quantum at local
	// cycle BoardCycle / software tick SWTick, having sent DataCount DATA
	// messages that the simulator must drain before proceeding.
	MTTimeAck
	// MTFinish (CLOCK, HW→board): co-simulation over.
	MTFinish
	// MTFinishAck (CLOCK, board→HW): board acknowledges shutdown; its
	// final statistics ride along in BoardCycle/SWTick.
	MTFinishAck
	// MTInterrupt (INT, HW→board): interrupt line IRQ fired.
	MTInterrupt
	// MTDataWrite (DATA, either direction): Words written at Addr.
	MTDataWrite
	// MTDataReadReq (DATA, board→HW): read Count words at Addr.
	MTDataReadReq
	// MTDataReadResp (DATA, HW→board): response to a read request.
	MTDataReadResp
	// MTSessionData (any channel, either direction): the resilient-session
	// envelope (see session.go). Raw holds the sender's ack vector (its
	// cumulative ack for each channel, see envAckLen) followed by a
	// complete inner message body (type byte + payload), Seq its
	// per-channel sequence number and Crc a CRC-32 over sequence number
	// and Raw, so corruption of acks or body is detected at the session
	// layer instead of poisoning the endpoint.
	MTSessionData
	// MTSessionAck (any channel, reverse direction): cumulative receipt —
	// every envelope with sequence number ≤ Seq arrived on this channel.
	// Sent only when no envelope carries the ack in time.
	MTSessionAck
	// MTSessionNack (any channel, reverse direction): a sequence gap was
	// observed; retransmit every unacknowledged envelope from Seq up.
	MTSessionNack
	// MTHeartbeat (CLOCK, either direction): liveness probe carrying a
	// monotonic counter in Seq; never sequenced, never retransmitted.
	MTHeartbeat
	// MTAttach (any channel, board→listener, immediately after the hello):
	// the multiplexing handshake of a farm listener. Version repeats the
	// protocol version; Seq carries the session ID the connection belongs
	// to, so one listener can route many boards to their runs (see
	// MuxListener). A plain Listener never sees this frame.
	MTAttach
	// MTBatch (any channel, either direction): a coalescing envelope that
	// carries every message of one quantum-boundary flush as a single
	// frame. Count holds the number of inner messages; Raw holds their
	// concatenated bodies, each prefixed by its u32 length (the same
	// framing the plain codec uses, minus the outer prefix). One batch
	// costs one transport send — and, above a session layer, one
	// sequenced/CRC'd/acknowledged envelope — instead of Count of them.
	// See BatchTransport.
	MTBatch
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MTHello:
		return "hello"
	case MTClockGrant:
		return "clock-grant"
	case MTTimeAck:
		return "time-ack"
	case MTFinish:
		return "finish"
	case MTFinishAck:
		return "finish-ack"
	case MTInterrupt:
		return "interrupt"
	case MTDataWrite:
		return "data-write"
	case MTDataReadReq:
		return "data-read-req"
	case MTDataReadResp:
		return "data-read-resp"
	case MTSessionData:
		return "session-data"
	case MTSessionAck:
		return "session-ack"
	case MTSessionNack:
		return "session-nack"
	case MTHeartbeat:
		return "heartbeat"
	case MTAttach:
		return "attach"
	case MTBatch:
		return "batch"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Msg is one protocol message. It is a tagged union: which fields are
// meaningful depends on Type (see the MsgType constants). A single struct
// keeps the hot path allocation-free and the wire codec simple.
type Msg struct {
	Type MsgType

	// DATA-channel fields.
	Addr  uint32
	Count uint32
	Words []uint32

	// INT-channel fields.
	IRQ uint8

	// CLOCK-channel fields.
	Ticks      uint64
	HWCycle    uint64
	BoardCycle uint64
	SWTick     uint64
	DataCount  uint32
	IntCount   uint32
	// Lookahead carries adaptive synchronization (see hwendpoint.go). On
	// MTClockGrant it is the grant's lead: the ticks the board runs
	// before it applies the grant's traffic (0 in plain stepping). On
	// MTTimeAck it is the board's promise, in grant ticks from the ack,
	// before which no thread can become runnable: NoLookahead (0) makes
	// no promise; UnboundedLookahead means no event is scheduled at all.
	Lookahead uint64

	// Hello fields.
	Version uint16

	// Session-layer fields (MTSessionData/Ack/Nack, MTHeartbeat).
	Seq uint64 // per-channel sequence / cumulative ack / heartbeat counter
	Crc uint32 // CRC-32 (IEEE): over Seq+Raw for envelopes, Seq+type for control frames
	Raw []byte // complete inner message body (type byte + payload)
}

// Release does nothing: a message owns its payload slices by value (see
// the ownership rule on Transport), so there is nothing to return. It is
// kept only for the benchmark harness (bench/), which still calls it.
func (m *Msg) Release() {}

// clonePayloads returns a copy of m with payload slices of its own.
// Fault-injection layers use it when a frame is duplicated or stashed for
// later, so no second copy aliases a buffer the sender may reuse (a
// session body recycled after an ack).
func clonePayloads(m Msg) Msg {
	m.Words = slices.Clone(m.Words)
	m.Raw = slices.Clone(m.Raw)
	return m
}

// Lookahead sentinels (see Msg.Lookahead).
const (
	// NoLookahead promises nothing: an event may be imminent, so the
	// master must rendezvous at every TSync boundary.
	NoLookahead uint64 = 0
	// UnboundedLookahead reports that no future event is scheduled at
	// all on the promising side.
	UnboundedLookahead uint64 = math.MaxUint64
)

// MaxWords bounds the Words slice on the wire, and the words a read
// request may ask for, to keep a corrupted or hostile count from
// allocating unbounded memory.
const MaxWords = 1 << 16

// maxFrameBody bounds the body of one frame on the wire. It is sized so a
// session envelope (17 bytes of header and a 24-byte ack vector) can
// still carry the largest unwrapped message body (a MaxWords data-write).
const maxFrameBody = 4*(MaxWords+8) + 32

// maxBatchMsgs bounds the number of inner messages one MTBatch may carry
// on the wire, so a corrupted count cannot drive an allocation loop.
const maxBatchMsgs = 1 << 14

// bufPool recycles codec scratch buffers: every Encode/WireSize body
// build and every Decode frame read draws from it instead of allocating.
// decodeBody copies variable-length payloads (Words, Raw) out of the
// buffer into slices of their exact size, so returning it after use is
// safe. A buffer grown for a large frame stays grown in the pool, so
// repeated large frames do not reallocate.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { *b = (*b)[:0]; bufPool.Put(b) }

// Encode writes the message in its framed wire format:
//
//	uint32  payload length (bytes, excluding this prefix)
//	uint8   type
//	...     type-specific payload, little-endian
func (m *Msg) Encode(w io.Writer) error {
	bp := getBuf()
	body := m.appendBody(append(*bp, 0, 0, 0, 0))
	binary.LittleEndian.PutUint32(body[:4], uint32(len(body)-4))
	_, err := w.Write(body)
	*bp = body
	putBuf(bp)
	return err
}

// appendBody appends the unframed body (starting with the type byte) to b.
func (m *Msg) appendBody(b []byte) []byte {
	b = append(b, byte(m.Type))
	le := binary.LittleEndian
	switch m.Type {
	case MTHello:
		b = le.AppendUint16(b, m.Version)
	case MTClockGrant:
		b = le.AppendUint64(b, m.Ticks)
		b = le.AppendUint64(b, m.HWCycle)
		b = le.AppendUint64(b, m.Lookahead)
		b = le.AppendUint32(b, m.DataCount)
		b = le.AppendUint32(b, m.IntCount)
	case MTTimeAck, MTFinishAck:
		b = le.AppendUint64(b, m.BoardCycle)
		b = le.AppendUint64(b, m.SWTick)
		b = le.AppendUint64(b, m.Lookahead)
		b = le.AppendUint32(b, m.DataCount)
	case MTFinish:
		b = le.AppendUint64(b, m.HWCycle)
	case MTInterrupt:
		b = append(b, m.IRQ)
	case MTDataWrite, MTDataReadResp:
		b = le.AppendUint32(b, m.Addr)
		b = le.AppendUint32(b, uint32(len(m.Words)))
		for _, w := range m.Words {
			b = le.AppendUint32(b, w)
		}
	case MTDataReadReq:
		b = le.AppendUint32(b, m.Addr)
		b = le.AppendUint32(b, m.Count)
	case MTSessionData:
		b = le.AppendUint64(b, m.Seq)
		b = le.AppendUint32(b, m.Crc)
		b = le.AppendUint32(b, uint32(len(m.Raw)))
		b = append(b, m.Raw...)
	case MTSessionAck, MTSessionNack, MTHeartbeat:
		b = le.AppendUint64(b, m.Seq)
		b = le.AppendUint32(b, m.Crc)
	case MTAttach:
		b = le.AppendUint16(b, m.Version)
		b = le.AppendUint64(b, m.Seq)
	case MTBatch:
		b = le.AppendUint32(b, m.Count)
		b = append(b, m.Raw...)
	default:
		panic(fmt.Sprintf("cosim: encode of unknown message type %d", m.Type))
	}
	return b
}

// Decode reads one framed message from r. The header and the body are
// read into a pooled scratch buffer, so a frame without payloads costs no
// allocation.
func Decode(r io.Reader) (Msg, error) {
	bp := getBuf()
	defer putBuf(bp)
	if _, err := io.ReadFull(r, (*bp)[:frameHeaderLen]); err != nil {
		return Msg{}, err
	}
	n, err := frameLen((*bp)[:frameHeaderLen])
	if err != nil {
		return Msg{}, err
	}
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	body := (*bp)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return Msg{}, fmt.Errorf("cosim: truncated frame: %w", err)
	}
	return decodeBody(body)
}

// frameHeaderLen is the length prefix in front of every frame body.
const frameHeaderLen = 4

// frameLen reads a frame's body length from its header, refusing one no
// encoder produces.
func frameLen(hdr []byte) (int, error) {
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > maxFrameBody {
		return 0, fmt.Errorf("cosim: implausible frame length %d", n)
	}
	return int(n), nil
}

func decodeBody(body []byte) (Msg, error) {
	le := binary.LittleEndian
	m := Msg{Type: MsgType(body[0])}
	p := body[1:]
	need := func(n int) error {
		if len(p) < n {
			return fmt.Errorf("cosim: short %v message: %d bytes left, need %d", m.Type, len(p), n)
		}
		return nil
	}
	switch m.Type {
	case MTHello:
		if err := need(2); err != nil {
			return m, err
		}
		m.Version = le.Uint16(p)
	case MTClockGrant:
		if err := need(32); err != nil {
			return m, err
		}
		m.Ticks = le.Uint64(p)
		m.HWCycle = le.Uint64(p[8:])
		m.Lookahead = le.Uint64(p[16:])
		m.DataCount = le.Uint32(p[24:])
		m.IntCount = le.Uint32(p[28:])
	case MTTimeAck, MTFinishAck:
		if err := need(28); err != nil {
			return m, err
		}
		m.BoardCycle = le.Uint64(p)
		m.SWTick = le.Uint64(p[8:])
		m.Lookahead = le.Uint64(p[16:])
		m.DataCount = le.Uint32(p[24:])
	case MTFinish:
		if err := need(8); err != nil {
			return m, err
		}
		m.HWCycle = le.Uint64(p)
	case MTInterrupt:
		if err := need(1); err != nil {
			return m, err
		}
		m.IRQ = p[0]
	case MTDataWrite, MTDataReadResp:
		if err := need(8); err != nil {
			return m, err
		}
		m.Addr = le.Uint32(p)
		count := le.Uint32(p[4:])
		if count > MaxWords {
			return m, fmt.Errorf("cosim: %v with %d words exceeds limit", m.Type, count)
		}
		if err := need(8 + 4*int(count)); err != nil {
			return m, err
		}
		m.Words = make([]uint32, count)
		for i := range m.Words {
			m.Words[i] = le.Uint32(p[8+4*i:])
		}
	case MTDataReadReq:
		if err := need(8); err != nil {
			return m, err
		}
		m.Addr = le.Uint32(p)
		m.Count = le.Uint32(p[4:])
		if m.Count > MaxWords {
			// The response could never be framed.
			return m, fmt.Errorf("cosim: %v of %d words exceeds limit", m.Type, m.Count)
		}
	case MTSessionData:
		if err := need(16); err != nil {
			return m, err
		}
		m.Seq = le.Uint64(p)
		m.Crc = le.Uint32(p[8:])
		rawLen := le.Uint32(p[12:])
		if rawLen > maxFrameBody {
			return m, fmt.Errorf("cosim: session envelope of %d bytes exceeds limit", rawLen)
		}
		if err := need(16 + int(rawLen)); err != nil {
			return m, err
		}
		m.Raw = make([]byte, rawLen)
		copy(m.Raw, p[16:])
	case MTSessionAck, MTSessionNack, MTHeartbeat:
		if err := need(12); err != nil {
			return m, err
		}
		m.Seq = le.Uint64(p)
		m.Crc = le.Uint32(p[8:])
	case MTAttach:
		if err := need(10); err != nil {
			return m, err
		}
		m.Version = le.Uint16(p)
		m.Seq = le.Uint64(p[2:])
	case MTBatch:
		if err := need(4); err != nil {
			return m, err
		}
		m.Count = le.Uint32(p)
		if m.Count > maxBatchMsgs {
			return m, fmt.Errorf("cosim: batch of %d messages exceeds limit", m.Count)
		}
		// The inner framing is opaque here; splitBatch validates it when
		// the batch is opened, so a corrupted batch fails loudly there
		// instead of poisoning the codec's closure property.
		m.Raw = make([]byte, len(p)-4)
		copy(m.Raw, p[4:])
	default:
		return m, fmt.Errorf("cosim: unknown message type %d", body[0])
	}
	return m, nil
}

// WireSize returns the number of bytes the message occupies on the wire,
// including the frame prefix; used by the metrics counters.
func (m *Msg) WireSize() int {
	bp := getBuf()
	*bp = m.appendBody(append(*bp, 0, 0, 0, 0))
	n := len(*bp)
	putBuf(bp)
	return n
}
