package cosim

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame proves that arbitrary bytes never panic the decoder,
// and that anything Decode accepts re-encodes to a frame that decodes to
// the same canonical bytes (the codec is closed over its own output).
func FuzzDecodeFrame(f *testing.F) {
	seedMsgs := []Msg{
		{Type: MTHello, Version: ProtocolVersion},
		{Type: MTClockGrant, Ticks: 1000, HWCycle: 42, DataCount: 2, IntCount: 1},
		{Type: MTTimeAck, BoardCycle: 7, SWTick: 3, DataCount: 1},
		{Type: MTDataWrite, Addr: 0x10, Words: []uint32{1, 2, 3}},
		envelope(9, [numChannels]uint64{8, 1, 4}, Msg{Type: MTDataWrite, Addr: 0x20, Words: []uint32{5}}),
		// A valid CRC over an ack vector cut short: the codec passes it,
		// and the session counts it in CrcDropped without delivering it.
		{Type: MTSessionData, Seq: 9, Crc: sessionCRC(9, []byte{8, 0, 0}), Raw: []byte{8, 0, 0}},
		{Type: MTHeartbeat, Seq: 77},
	}
	for _, m := range seedMsgs {
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0xee})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := m.Encode(&first); err != nil {
			t.Fatalf("accepted message %+v does not re-encode: %v", m, err)
		}
		m2, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		var second bytes.Buffer
		if err := m2.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("codec not stable:\nfirst  %x\nsecond %x", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzMsgRoundTrip proves encode→decode→encode is lossless for every
// message type over fuzz-chosen field values.
func FuzzMsgRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint32(0), uint32(0), uint64(0), uint64(0), uint8(0), []byte{})
	f.Add(uint8(2), uint32(3), uint32(1), uint64(1000), uint64(99), uint8(4), []byte{1, 2, 3, 4})
	f.Add(uint8(7), uint32(0x40), uint32(2), uint64(0), uint64(0), uint8(0), []byte{9, 8, 7, 6, 5, 4, 3, 2})
	f.Add(uint8(10), uint32(0xfeed), uint32(5), uint64(1<<40), uint64(12), uint8(1), []byte{7, 0, 1})
	env := envelope(12, [numChannels]uint64{3, 0, 11}, Msg{Type: MTTimeAck, BoardCycle: 99, SWTick: 9})
	f.Add(uint8(MTSessionData-MTHello), env.Crc, uint32(0), env.Seq, uint64(0), uint8(0), env.Raw)
	f.Fuzz(func(t *testing.T, typ uint8, a, b uint32, u, v uint64, small uint8, blob []byte) {
		if len(blob) > maxFrameBody {
			blob = blob[:maxFrameBody]
		}
		m := Msg{Type: MTHello + MsgType(typ)%15}
		words := make([]uint32, 0, len(blob)/4)
		for i := 0; i+4 <= len(blob) && len(words) < MaxWords; i += 4 {
			words = append(words, uint32(blob[i])|uint32(blob[i+1])<<8|uint32(blob[i+2])<<16|uint32(blob[i+3])<<24)
		}
		switch m.Type {
		case MTHello:
			m.Version = uint16(a)
		case MTClockGrant:
			m.Ticks, m.HWCycle, m.DataCount, m.IntCount = u, v, a, b
		case MTTimeAck, MTFinishAck:
			m.BoardCycle, m.SWTick, m.DataCount = u, v, a
		case MTFinish:
			m.HWCycle = u
		case MTInterrupt:
			m.IRQ = small
		case MTDataWrite, MTDataReadResp:
			m.Addr, m.Words = a, words
		case MTDataReadReq:
			// Decode rejects a read of more than MaxWords words.
			m.Addr, m.Count = a, b%(MaxWords+1)
		case MTSessionData:
			m.Seq, m.Crc, m.Raw = u, a, blob
		case MTSessionAck, MTSessionNack, MTHeartbeat:
			m.Seq, m.Crc = u, a
		case MTAttach:
			m.Version, m.Seq = uint16(a), u
		case MTBatch:
			// The inner framing is opaque to the codec; any blob must
			// round-trip. splitBatch's validation is fuzzed separately.
			m.Count, m.Raw = b%maxBatchMsgs, blob
		default:
			t.Fatalf("unmapped type %v", m.Type)
		}
		var first bytes.Buffer
		if err := m.Encode(&first); err != nil {
			t.Fatalf("encode %v: %v", m.Type, err)
		}
		if first.Len() != m.WireSize() {
			t.Fatalf("%v: WireSize %d, encoded %d", m.Type, m.WireSize(), first.Len())
		}
		got, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode %v: %v", m.Type, err)
		}
		if got.Type != m.Type {
			t.Fatalf("type changed: sent %v got %v", m.Type, got.Type)
		}
		var second bytes.Buffer
		if err := got.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%v round trip not lossless:\nsent %x\ngot  %x", m.Type, first.Bytes(), second.Bytes())
		}

		// Aliasing detector. A decoded message owns its payload: decoding
		// more frames through the recycled scratch buffer while `got` is
		// live must not scribble on its slices, and must stay lossless.
		snapWords := append([]uint32(nil), got.Words...)
		snapRaw := append([]byte(nil), got.Raw...)
		if _, err := Decode(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatal(err)
		}
		if !wordsEqual(got.Words, snapWords) || !bytes.Equal(got.Raw, snapRaw) {
			t.Fatalf("%v: second decode aliased a live message's payload", m.Type)
		}
		again, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode into recycled buffer: %v", err)
		}
		var third bytes.Buffer
		if err := again.Encode(&third); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), third.Bytes()) {
			t.Fatalf("%v: decode into recycled buffer not lossless:\nsent %x\ngot  %x", m.Type, first.Bytes(), third.Bytes())
		}
	})
}

func wordsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
