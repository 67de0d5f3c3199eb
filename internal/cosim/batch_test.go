package cosim

import (
	"errors"
	"fmt"
	"testing"
)

// queueTransport is a loss-free in-memory Transport recording exactly the
// frames the batch layer emits, for asserting on the wire image.
type queueTransport struct {
	q [numChannels][]Msg
}

func (t *queueTransport) Send(ch Channel, m Msg) error {
	t.q[ch] = append(t.q[ch], m)
	return nil
}

func (t *queueTransport) Recv(ch Channel) (Msg, error) {
	if len(t.q[ch]) == 0 {
		return Msg{}, fmt.Errorf("queueTransport: empty %v", ch)
	}
	m := t.q[ch][0]
	t.q[ch] = t.q[ch][1:]
	return m, nil
}

func (t *queueTransport) TryRecv(ch Channel) (Msg, bool, error) {
	if len(t.q[ch]) == 0 {
		return Msg{}, false, nil
	}
	m, err := t.Recv(ch)
	return m, err == nil, err
}

func (t *queueTransport) Close() error { return nil }

// TestBatchCoalesce proves the headline behavior: a quantum's DATA and INT
// traffic becomes one MTBatch frame per channel when the CLOCK boundary
// message flushes, and a receiving batch layer splices the messages back
// out in order.
func TestBatchCoalesce(t *testing.T) {
	wire := &queueTransport{}
	tx := NewBatchTransport(wire)

	sent := []Msg{
		{Type: MTDataWrite, Addr: 0x10, Words: []uint32{1, 2}},
		{Type: MTDataWrite, Addr: 0x14, Words: []uint32{3}},
		{Type: MTDataReadResp, Addr: 0x20, Words: []uint32{9, 9, 9}},
	}
	for _, m := range sent {
		if err := tx.Send(ChanData, m); err != nil {
			t.Fatal(err)
		}
	}
	for irq := uint8(1); irq <= 2; irq++ {
		if err := tx.Send(ChanInt, Msg{Type: MTInterrupt, IRQ: irq}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(wire.q[ChanData]) + len(wire.q[ChanInt]); got != 0 {
		t.Fatalf("batch layer leaked %d frames before the boundary", got)
	}

	grant := Msg{Type: MTClockGrant, Ticks: 100, DataCount: 3, IntCount: 2}
	if err := tx.Send(ChanClock, grant); err != nil {
		t.Fatal(err)
	}
	if len(wire.q[ChanData]) != 1 || wire.q[ChanData][0].Type != MTBatch {
		t.Fatalf("DATA channel: want one MTBatch frame, got %+v", wire.q[ChanData])
	}
	if len(wire.q[ChanInt]) != 1 || wire.q[ChanInt][0].Type != MTBatch {
		t.Fatalf("INT channel: want one MTBatch frame, got %+v", wire.q[ChanInt])
	}
	if len(wire.q[ChanClock]) != 1 || wire.q[ChanClock][0].Type != MTClockGrant {
		t.Fatalf("CLOCK channel: want the bare grant, got %+v", wire.q[ChanClock])
	}

	rx := NewBatchTransport(wire)
	for i, want := range sent {
		got, err := rx.Recv(ChanData)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got.Type != want.Type || got.Addr != want.Addr || len(got.Words) != len(want.Words) {
			t.Fatalf("message %d reordered or mangled: sent %+v got %+v", i, want, got)
		}
	}
	for irq := uint8(1); irq <= 2; irq++ {
		got, err := rx.Recv(ChanInt)
		if err != nil || got.Type != MTInterrupt || got.IRQ != irq {
			t.Fatalf("INT splice: want irq %d, got %+v (%v)", irq, got, err)
		}
	}
	if g, err := rx.Recv(ChanClock); err != nil || g.Ticks != grant.Ticks {
		t.Fatalf("grant: got %+v (%v)", g, err)
	}

	st := tx.BatchStats()
	if st.Flushes != 2 || st.Batched != 5 {
		t.Fatalf("tx stats: want 2 flushes of 5 messages, got %+v", st)
	}
	if ro := rx.BatchStats(); ro.Opened != 2 {
		t.Fatalf("rx stats: want 2 opened, got %+v", ro)
	}
}

// TestBatchSingleMessageBypass: wrapping one message in a batch would only
// add bytes, so a single-entry flush sends the bare frame.
func TestBatchSingleMessageBypass(t *testing.T) {
	wire := &queueTransport{}
	tx := NewBatchTransport(wire)
	if err := tx.Send(ChanData, Msg{Type: MTDataWrite, Addr: 4, Words: []uint32{1}}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Send(ChanClock, Msg{Type: MTClockGrant, Ticks: 10, DataCount: 1}); err != nil {
		t.Fatal(err)
	}
	if len(wire.q[ChanData]) != 1 || wire.q[ChanData][0].Type != MTDataWrite {
		t.Fatalf("want the bare DATA frame, got %+v", wire.q[ChanData])
	}
	if st := tx.BatchStats(); st.Flushes != 0 || st.Bypassed != 2 {
		t.Fatalf("want 0 flushes / 2 bypassed (data + clock), got %+v", st)
	}
}

// TestBatchSizeCap: a flush never builds a batch larger than
// maxBatchPayload — earlier messages are flushed first, and a message too
// large to ever share a batch goes out alone, in order.
func TestBatchSizeCap(t *testing.T) {
	wire := &queueTransport{}
	tx := NewBatchTransport(wire)

	big := make([]uint32, MaxWords)
	if sz := (&Msg{Type: MTDataWrite, Words: big}).WireSize(); sz <= maxBatchPayload {
		t.Fatalf("test premise broken: MaxWords write (%d bytes) fits a batch (%d)", sz, maxBatchPayload)
	}
	if err := tx.Send(ChanData, Msg{Type: MTDataWrite, Addr: 1, Words: []uint32{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Send(ChanData, Msg{Type: MTDataWrite, Addr: 2, Words: []uint32{3}}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Send(ChanData, Msg{Type: MTDataWrite, Addr: 3, Words: big}); err != nil {
		t.Fatal(err)
	}
	// Order on the wire: the two small writes as one batch (flushed to
	// make way), then the oversized write bare.
	if len(wire.q[ChanData]) != 2 {
		t.Fatalf("want batch + bare oversize, got %d frames", len(wire.q[ChanData]))
	}
	if wire.q[ChanData][0].Type != MTBatch || wire.q[ChanData][0].Count != 2 {
		t.Fatalf("first frame: want 2-message batch, got %+v", wire.q[ChanData][0].Type)
	}
	if wire.q[ChanData][1].Type != MTDataWrite || wire.q[ChanData][1].Addr != 3 {
		t.Fatalf("second frame: want the oversized bare write, got %+v", wire.q[ChanData][1].Type)
	}

	// Receiving side sees the original order.
	rx := NewBatchTransport(wire)
	for i, wantAddr := range []uint32{1, 2, 3} {
		m, err := rx.Recv(ChanData)
		if err != nil || m.Addr != wantAddr {
			t.Fatalf("message %d: want addr %d, got %+v (%v)", i, wantAddr, m, err)
		}
	}
}

// TestBatchRejectsMalformed: splitBatch fails loudly on nested batches,
// count mismatches, and truncated entries instead of poisoning the codec.
func TestBatchRejectsMalformed(t *testing.T) {
	pack := func(msgs ...Msg) []byte {
		var raw []byte
		for i := range msgs {
			at := len(raw)
			raw = append(raw, 0, 0, 0, 0)
			raw = msgs[i].appendBody(raw)
			n := len(raw) - at - 4
			raw[at] = byte(n)
			raw[at+1] = byte(n >> 8)
			raw[at+2] = byte(n >> 16)
			raw[at+3] = byte(n >> 24)
		}
		return raw
	}
	inner := Msg{Type: MTInterrupt, IRQ: 3}

	cases := []struct {
		name string
		m    Msg
	}{
		{"nested batch", Msg{Type: MTBatch, Count: 1, Raw: pack(Msg{Type: MTBatch, Count: 0})}},
		{"count mismatch", Msg{Type: MTBatch, Count: 5, Raw: pack(inner, inner)}},
		{"truncated header", Msg{Type: MTBatch, Count: 1, Raw: []byte{1, 0}}},
		{"overlong entry", Msg{Type: MTBatch, Count: 1, Raw: []byte{0xff, 0xff, 0xff, 0xff, 0x09}}},
		{"zero-length entry", Msg{Type: MTBatch, Count: 1, Raw: []byte{0, 0, 0, 0}}},
	}
	for _, tc := range cases {
		// A batch that aborts mid-decode hands back none of the entries
		// it already opened.
		if got, err := splitBatch(tc.m, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if len(got) != 0 {
			t.Errorf("%s: error path returned %d entries, want 0", tc.name, len(got))
		}
	}

	if got, err := splitBatch(Msg{Type: MTBatch, Count: 2, Raw: pack(inner, inner)}, nil); err != nil || len(got) != 2 {
		t.Fatalf("well-formed batch rejected: %v", err)
	}
}

// TestSplitBatchErrorReleasesDecodedPrefix: a batch that aborts
// mid-decode drops the entries it already opened and leaves what the
// caller's slice held before the call untouched.
func TestSplitBatchErrorReleasesDecodedPrefix(t *testing.T) {
	// One valid entry followed by a truncated header.
	src := Msg{Type: MTDataWrite, Addr: 4, Words: []uint32{7, 8}}
	raw := []byte{0, 0, 0, 0}
	raw = src.appendBody(raw)
	n := len(raw) - 4
	raw[0], raw[1], raw[2], raw[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	raw = append(raw, 0xff, 0xff) // next entry's header cut short
	batch := Msg{Type: MTBatch, Count: 2, Raw: raw}

	out, err := splitBatch(batch, nil)
	if err == nil {
		t.Fatal("malformed batch decoded without error")
	}
	if len(out) != 0 {
		t.Fatalf("error path returned %d entries, want 0", len(out))
	}

	held := Msg{Type: MTInterrupt, IRQ: 9}
	out, err = splitBatch(batch, append(make([]Msg, 0, 4), held))
	if err == nil {
		t.Fatal("malformed batch decoded without error")
	}
	if len(out) != 1 || out[0].Type != MTInterrupt || out[0].IRQ != 9 {
		t.Fatalf("error path left %+v, want only the caller's entry", out)
	}
}

// errSendTransport fails every Send.
type errSendTransport struct{ err error }

func (e *errSendTransport) Send(Channel, Msg) error            { return e.err }
func (e *errSendTransport) Recv(Channel) (Msg, error)          { return Msg{}, e.err }
func (e *errSendTransport) TryRecv(Channel) (Msg, bool, error) { return Msg{}, false, e.err }
func (e *errSendTransport) Close() error                       { return nil }

// TestBatchSendFlushErrorFails: when the flush a CLOCK send triggers
// fails, the CLOCK message never reaches the wire and Send reports the
// flush error.
func TestBatchSendFlushErrorFails(t *testing.T) {
	wireDown := errors.New("wire down")
	bt := NewBatchTransport(&errSendTransport{err: wireDown})
	for i := 0; i < 2; i++ {
		if err := bt.Send(ChanData, Msg{Type: MTDataWrite, Addr: uint32(i), Words: []uint32{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Send(ChanClock, Msg{Type: MTClockGrant, Ticks: 1}); !errors.Is(err, wireDown) {
		t.Fatalf("CLOCK send over a dead transport = %v, want the flush error", err)
	}
}

// FuzzBatchRoundTrip drives fuzz-chosen message sequences through a
// sending batch layer and back through a receiving one, asserting
// order-preserving losslessness; the raw arm feeds arbitrary bytes to
// splitBatch, which must reject garbage without panicking.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{})
	f.Add([]byte{0, 0, 0, 0}, []byte{0, 0, 0, 0})
	f.Add([]byte{9}, []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, plan, raw []byte) {
		// Arm 1: splitBatch over arbitrary bytes never panics.
		if msgs, err := splitBatch(Msg{Type: MTBatch, Count: uint32(len(raw) / 8), Raw: raw}, nil); err == nil {
			for _, m := range msgs {
				if m.Type == MTBatch {
					t.Fatal("splitBatch yielded a nested batch")
				}
			}
		}

		// Arm 2: a plan-derived DATA/INT sequence survives the batch
		// layer bit-for-bit and in order.
		wire := &queueTransport{}
		tx := NewBatchTransport(wire)
		var sent []Msg
		for i, b := range plan {
			if len(sent) >= 64 {
				break
			}
			var m Msg
			var ch Channel
			switch b % 3 {
			case 0:
				ch = ChanData
				m = Msg{Type: MTDataWrite, Addr: uint32(i), Words: []uint32{uint32(b), uint32(i)}}
			case 1:
				ch = ChanData
				m = Msg{Type: MTDataReadReq, Addr: uint32(b), Count: uint32(i%7) + 1}
			case 2:
				ch = ChanInt
				m = Msg{Type: MTInterrupt, IRQ: b}
			}
			if err := tx.Send(ch, m); err != nil {
				t.Fatal(err)
			}
			sent = append(sent, m)
		}
		if err := tx.Send(ChanClock, Msg{Type: MTClockGrant, Ticks: 1}); err != nil {
			t.Fatal(err)
		}

		// Aliasing detector: the first received message is held live while
		// every later message is received through the same layer and its
		// reused scratch. If a later decode aliases the held message's
		// payload, the final check catches the corruption.
		rx := NewBatchTransport(wire)
		var held Msg
		var heldWords []uint32
		for i, want := range sent {
			ch := ChanData
			if want.Type == MTInterrupt {
				ch = ChanInt
			}
			got, err := rx.Recv(ch)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if got.Type != want.Type || got.Addr != want.Addr || got.IRQ != want.IRQ ||
				got.Count != want.Count || len(got.Words) != len(want.Words) {
				t.Fatalf("message %d mangled: sent %+v got %+v", i, want, got)
			}
			for j := range want.Words {
				if got.Words[j] != want.Words[j] {
					t.Fatalf("message %d word %d: sent %x got %x", i, j, want.Words[j], got.Words[j])
				}
			}
			if i == 0 {
				held = got
				heldWords = append([]uint32(nil), got.Words...)
			}
		}
		if len(sent) > 0 {
			if !wordsEqual(held.Words, heldWords) {
				t.Fatalf("held message corrupted by buffer reuse: want %x got %x", heldWords, held.Words)
			}
		}
	})
}
