package accel

import (
	"testing"

	"repro/internal/checksum"
	"repro/internal/hdlsim"
	"repro/internal/sim"
)

// fakeEP is a minimal DriverEndpoint that feeds writes and captures
// output, for driving the accelerator without a board.
type fakeEP struct {
	pending []hdlsim.DataMsg
	out     []hdlsim.DataMsg
	ints    []uint8
}

func (f *fakeEP) PollData() []hdlsim.DataMsg {
	p := f.pending
	f.pending = nil
	return p
}
func (f *fakeEP) Send(m hdlsim.DataMsg) error {
	if m.Kind == hdlsim.DataInterrupt {
		f.ints = append(f.ints, m.IRQ)
	} else {
		f.out = append(f.out, m)
	}
	return nil
}

func drive(t *testing.T, data []byte, bytesPerCycle int) (crc uint16, cyclesToDone uint64, ints int) {
	t.Helper()
	s := hdlsim.NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	a := New(s, clk, 0x100, 9, bytesPerCycle)
	ep := &fakeEP{}
	words, err := PackBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	ep.pending = append(ep.pending,
		hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: 0x100 + RegData, Words: words},
		hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: 0x100 + RegLen, Words: []uint32{uint32(len(data))}},
		hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: 0x100 + RegCtrl, Words: []uint32{1}},
	)
	d, err := s.NewDriver(clk, ep)
	if err != nil {
		t.Fatal(err)
	}
	// Step in strides of 5 cycles so the run ends promptly once the
	// engine reports completion.
	for n := uint64(5); n <= 1000 && a.Done() == 0; n += 5 {
		if _, _, err := d.Advance(n); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if a.Done() != 1 {
		t.Fatalf("accelerator completed %d ops", a.Done())
	}
	if len(ep.out) == 0 {
		t.Fatal("no result posted")
	}
	last := ep.out[len(ep.out)-1]
	if last.Addr != 0x100+RegResult || len(last.Words) != 2 || last.Words[1] != 1 {
		t.Fatalf("result message %+v", last)
	}
	return uint16(last.Words[0]), st.Cycles, len(ep.ints)
}

func TestCRCAcceleratorCorrectness(t *testing.T) {
	for _, msg := range []string{"123456789", "x", "", "factory automation packet payload ..."} {
		data := []byte(msg)
		crc, _, ints := drive(t, data, 4)
		if crc != checksum.CRC16CCITT(data) {
			t.Fatalf("CRC(%q) = %#04x, want %#04x", msg, crc, checksum.CRC16CCITT(data))
		}
		if ints != 1 {
			t.Fatalf("raised %d interrupts", ints)
		}
	}
}

func TestCRCAcceleratorThroughputModel(t *testing.T) {
	data := make([]byte, 128)
	_, slow, _ := drive(t, data, 1) // 1 B/cycle → ≥ 128 cycles
	_, fast, _ := drive(t, data, 16)
	if slow <= fast {
		t.Fatalf("narrow datapath (%d cycles) not slower than wide (%d)", slow, fast)
	}
	if slow < 128 {
		t.Fatalf("1 B/cycle finished 128 bytes in %d cycles", slow)
	}
}

func TestPackBytes(t *testing.T) {
	words, err := PackBytes([]byte{0x11, 0x22, 0x33, 0x44, 0x55})
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 2 || words[0] != 0x44332211 || words[1] != 0x55 {
		t.Fatalf("packed %#v", words)
	}
	if _, err := PackBytes(make([]byte, MaxBytes+1)); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestBadConfigPanics(t *testing.T) {
	s := hdlsim.NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	defer func() {
		if recover() == nil {
			t.Fatal("bytesPerCycle 0 accepted")
		}
	}()
	New(s, clk, 0, 9, 0)
}
