package cosim

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatalf("encode %v: %v", m.Type, err)
	}
	if buf.Len() != m.WireSize() {
		t.Fatalf("%v: WireSize %d but encoded %d bytes", m.Type, m.WireSize(), buf.Len())
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode %v: %v", m.Type, err)
	}
	return got
}

func TestProtoRoundTripAllTypes(t *testing.T) {
	msgs := []Msg{
		{Type: MTHello, Version: ProtocolVersion},
		{Type: MTClockGrant, Ticks: 5000, HWCycle: 123456789, DataCount: 3, IntCount: 2},
		{Type: MTTimeAck, BoardCycle: 99, SWTick: 42, DataCount: 7},
		{Type: MTFinish, HWCycle: 1 << 40},
		{Type: MTFinishAck, BoardCycle: 8, SWTick: 2, DataCount: 0},
		{Type: MTInterrupt, IRQ: 7},
		{Type: MTDataWrite, Addr: 0x100, Words: []uint32{1, 2, 3}},
		{Type: MTDataWrite, Addr: 0x200, Words: nil},
		{Type: MTDataReadReq, Addr: 0x300, Count: 16},
		{Type: MTDataReadResp, Addr: 0x300, Words: []uint32{0xdeadbeef}},
		envelope(42, [numChannels]uint64{40, 0, 41}, Msg{Type: MTInterrupt, IRQ: 3}),
		{Type: MTSessionAck, Seq: 41},
		{Type: MTSessionNack, Seq: 40},
		{Type: MTHeartbeat, Seq: 1 << 33},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		// nil vs empty Words both decode to empty.
		if len(m.Words) == 0 {
			got.Words = m.Words
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("round trip %v:\nsent %+v\ngot  %+v", m.Type, m, got)
		}
	}
}

func TestProtoStreamConcatenation(t *testing.T) {
	// Multiple frames back to back decode in order (framing resync).
	var buf bytes.Buffer
	in := []Msg{
		{Type: MTInterrupt, IRQ: 1},
		{Type: MTDataWrite, Addr: 4, Words: []uint32{9, 8}},
		{Type: MTClockGrant, Ticks: 10, HWCycle: 10},
	}
	for i := range in {
		if err := in[i].Encode(&buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := range in {
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != in[i].Type {
			t.Fatalf("frame %d: type %v, want %v", i, got.Type, in[i].Type)
		}
	}
	if _, err := Decode(&buf); err != io.EOF {
		t.Fatalf("after last frame: %v, want EOF", err)
	}
}

func TestProtoDataWriteProperty(t *testing.T) {
	f := func(addr uint32, words []uint32) bool {
		if len(words) > MaxWords {
			words = words[:MaxWords]
		}
		m := Msg{Type: MTDataWrite, Addr: addr, Words: words}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || got.Addr != addr || len(got.Words) != len(words) {
			return false
		}
		for i := range words {
			if got.Words[i] != words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProtoTruncatedFrames(t *testing.T) {
	m := Msg{Type: MTClockGrant, Ticks: 10, HWCycle: 20, DataCount: 1, IntCount: 1}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", cut)
		}
	}
}

func TestProtoGarbageRejected(t *testing.T) {
	cases := [][]byte{
		{0xff, 0xff, 0xff, 0xff},             // absurd length
		{0x00, 0x00, 0x00, 0x00},             // zero length
		{0x01, 0x00, 0x00, 0x00, 0xEE},       // unknown type
		{0x02, 0x00, 0x00, 0x00, 0x06, 0x00}, // interrupt frame too short is fine: 1 byte IRQ... actually valid
	}
	for i, raw := range cases[:3] {
		if _, err := Decode(bytes.NewReader(raw)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestProtoShortBodyFields(t *testing.T) {
	// A clock-grant body with too few bytes must error, not panic.
	body := []byte{byte(MTClockGrant), 1, 2, 3}
	var buf bytes.Buffer
	var lenPfx [4]byte
	lenPfx[0] = byte(len(body))
	buf.Write(lenPfx[:])
	buf.Write(body)
	if _, err := Decode(&buf); err == nil {
		t.Fatal("short clock-grant accepted")
	}
}

func TestProtoOversizeWordCountRejected(t *testing.T) {
	// Hand-craft a data-write claiming MaxWords+1 words, and a read
	// request asking for that many: neither response could be framed.
	for _, typ := range []MsgType{MTDataWrite, MTDataReadReq} {
		body := make([]byte, 0, 16)
		body = append(body, byte(typ))
		body = append(body, 0, 0, 0, 0) // addr
		n := uint32(MaxWords + 1)
		body = append(body, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		var buf bytes.Buffer
		var lenPfx [4]byte
		lenPfx[0] = byte(len(body))
		buf.Write(lenPfx[:])
		buf.Write(body)
		if _, err := Decode(&buf); err == nil {
			t.Fatalf("%v: oversize word count accepted", typ)
		}
	}
}

// TestDecodeNeverPanics feeds random byte soup to the decoder: whatever
// the wire delivers, Decode must fail cleanly, never panic or hang.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked on %x: %v", raw, r)
			}
		}()
		_, _ = Decode(bytes.NewReader(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestChannelAndTypeStrings(t *testing.T) {
	if ChanData.String() != "DATA" || ChanInt.String() != "INT" || ChanClock.String() != "CLOCK" {
		t.Fatal("channel names wrong")
	}
	if Channel(9).String() == "" || MsgType(200).String() == "" {
		t.Fatal("out-of-range strings empty")
	}
	for mt := MTHello; mt <= MTAttach; mt++ {
		if mt.String() == "" {
			t.Fatalf("no name for type %d", mt)
		}
	}
}
