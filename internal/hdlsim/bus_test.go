package hdlsim

import (
	"testing"

	"repro/internal/sim"
)

func busFixture(t *testing.T, latency uint64) (*Simulator, *Clock, *Bus, *RAM) {
	t.Helper()
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	bus := NewBus(s, clk, "axi", latency)
	ram := NewRAM(0x100, 64)
	if err := bus.Map(0x100, 64, ram); err != nil {
		t.Fatal(err)
	}
	return s, clk, bus, ram
}

func TestBusReadWriteRoundTrip(t *testing.T) {
	s, _, bus, _ := busFixture(t, 2)
	var got uint32
	s.Thread("cpu", func(c *Ctx) {
		if err := bus.Write(c, 0x110, 0xfeed); err != nil {
			t.Errorf("write: %v", err)
		}
		v, err := bus.Read(c, 0x110)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = v
	})
	if err := s.Run(sim.US(1)); err != nil {
		t.Fatal(err)
	}
	if got != 0xfeed {
		t.Fatalf("read back %#x", got)
	}
	r, w, _ := bus.Stats()
	if r != 1 || w != 1 {
		t.Fatalf("stats %d/%d", r, w)
	}
}

func TestBusLatencyCharged(t *testing.T) {
	s, clk, bus, _ := busFixture(t, 5)
	var doneCycle uint64
	s.Thread("cpu", func(c *Ctx) {
		c.WaitCycles(clk, 1) // align to a known cycle
		start := clk.Cycles()
		for i := 0; i < 4; i++ {
			if err := bus.Write(c, 0x100+uint32(i), 1); err != nil {
				t.Error(err)
			}
		}
		doneCycle = clk.Cycles() - start
	})
	if err := s.Run(sim.US(1)); err != nil {
		t.Fatal(err)
	}
	if doneCycle != 20 {
		t.Fatalf("4 writes at latency 5 took %d cycles, want 20", doneCycle)
	}
}

func TestBusArbitrationSerializes(t *testing.T) {
	s, clk, bus, _ := busFixture(t, 4)
	var finish []uint64
	for i := 0; i < 3; i++ {
		name := string(rune('a' + i))
		s.Thread(name, func(c *Ctx) {
			if err := bus.Write(c, 0x100, 1); err != nil {
				t.Error(err)
			}
			finish = append(finish, clk.Cycles())
		})
	}
	if err := s.Run(sim.US(1)); err != nil {
		t.Fatal(err)
	}
	if len(finish) != 3 {
		t.Fatalf("finishes %v", finish)
	}
	// Three 4-cycle transactions through one arbiter must complete ≈ 4
	// cycles apart, not concurrently.
	for i := 1; i < 3; i++ {
		if finish[i] < finish[i-1]+4 {
			t.Fatalf("transactions overlapped: %v", finish)
		}
	}
	if _, _, conflicts := bus.Stats(); conflicts == 0 {
		t.Fatal("no arbitration conflicts recorded")
	}
}

func TestBusUnmappedAndOverlap(t *testing.T) {
	s, _, bus, _ := busFixture(t, 1)
	var rdErr, wrErr error
	s.Thread("cpu", func(c *Ctx) {
		_, rdErr = bus.Read(c, 0x999)
		wrErr = bus.Write(c, 0x0, 1)
	})
	if err := s.Run(sim.US(1)); err != nil {
		t.Fatal(err)
	}
	if rdErr == nil || wrErr == nil {
		t.Fatal("unmapped access succeeded")
	}
	if err := bus.Map(0x120, 8, NewRAM(0x120, 8)); err == nil {
		t.Fatal("overlapping mapping accepted")
	}
	if err := bus.Map(0x200, 0, NewRAM(0x200, 0)); err == nil {
		t.Fatal("empty mapping accepted")
	}
	// A mapping ending exactly at 2³² is reachable and still refuses
	// an overlap.
	if err := bus.Map(0xFFFFFFF0, 0x10, NewRAM(0xFFFFFFF0, 0x10)); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.targetFor(0xFFFFFFF4); err != nil {
		t.Fatal(err)
	}
	if err := bus.Map(0xFFFFFFF8, 4, NewRAM(0xFFFFFFF8, 4)); err == nil {
		t.Fatal("mapping overlapping the one ending at 2³² accepted")
	}
}

func TestBusReadBlockAndRAMBounds(t *testing.T) {
	s, _, bus, ram := busFixture(t, 1)
	s.Thread("cpu", func(c *Ctx) {
		for i := uint32(0); i < 8; i++ {
			if err := bus.Write(c, 0x100+i, i*i); err != nil {
				t.Error(err)
			}
		}
		buf := make([]uint32, 8)
		if err := bus.ReadBlock(c, 0x100, buf); err != nil {
			t.Error(err)
		}
		for i, v := range buf {
			if v != uint32(i*i) {
				t.Errorf("buf[%d] = %d", i, v)
			}
		}
	})
	if err := s.Run(sim.US(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ram.BusRead(0x100 + 64); err == nil {
		t.Fatal("RAM read out of bounds succeeded")
	}
	if err := ram.BusWrite(0x0ff, 1); err == nil {
		t.Fatal("RAM write below base succeeded")
	}
	if ram.Size() != 64 {
		t.Fatalf("ram size %d", ram.Size())
	}
}

func TestBusZeroLatencyPanics(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	defer func() {
		if recover() == nil {
			t.Fatal("latency 0 accepted")
		}
	}()
	NewBus(s, clk, "bad", 0)
}
