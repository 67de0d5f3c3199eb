package board

import (
	"testing"

	"repro/internal/hdlsim"
	"repro/internal/rtos"
)

// dmaBoard builds a board with a 64-word device window pre-filled via the
// shadow path and a DMA engine.
func dmaBoard(t *testing.T, wordsPerTick int) (*Board, *RemoteDev, *DMA) {
	t.Helper()
	b := New(testCfg())
	dev, err := b.NewRemoteDev("/dev/buf", 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 64; i++ {
		if err := dev.applyWrite(hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: i, Words: []uint32{i * 3}}); err != nil {
			t.Fatal(err)
		}
	}
	return b, dev, b.NewDMA(7, wordsPerTick)
}

func TestDMACopiesInBackground(t *testing.T) {
	b, dev, dma := dmaBoard(t, 4)
	done := b.K.NewSemaphore("dma", 0)
	b.K.AttachInterrupt(7, nil, func() { done.Post() })

	dst := make([]uint32, 32)
	var cpuWorkDone bool
	var startTick, endTick uint64
	b.K.CreateThread("app", 10, func(c *rtos.ThreadCtx) {
		startTick = b.K.HWTick()
		if err := dma.Start(dev, 8, dst); err != nil {
			t.Errorf("Start: %v", err)
		}
		// The CPU is free while the DMA runs.
		c.Charge(300)
		cpuWorkDone = true
		done.Wait(c)
		endTick = b.K.HWTick()
		c.Exit()
	})
	b.K.Advance(100 * 40)
	if !cpuWorkDone {
		t.Fatal("CPU work did not overlap the transfer")
	}
	if dma.Busy() || dma.Completed() != 1 {
		t.Fatalf("dma state: busy=%v completed=%d", dma.Busy(), dma.Completed())
	}
	for i, v := range dst {
		if want := uint32(8+i) * 3; v != want {
			t.Fatalf("dst[%d] = %d, want %d", i, v, want)
		}
	}
	// 32 words at 4/tick = 8 ticks.
	if ticks := endTick - startTick; ticks < 8 || ticks > 10 {
		t.Fatalf("transfer took %d ticks, want ≈8", ticks)
	}
	if dma.WordsMoved() != 32 {
		t.Fatalf("moved %d words", dma.WordsMoved())
	}
}

func TestDMARejectsBadPrograms(t *testing.T) {
	b, dev, dma := dmaBoard(t, 4)
	b.K.AttachInterrupt(7, nil, nil)
	if err := dma.Start(dev, 60, make([]uint32, 8)); err == nil {
		t.Fatal("overrun accepted")
	}
	if err := dma.Start(dev, 0, nil); err == nil {
		t.Fatal("zero-length accepted")
	}
	if err := dma.Start(dev, 0, make([]uint32, 8)); err != nil {
		t.Fatal(err)
	}
	if err := dma.Start(dev, 0, make([]uint32, 8)); err == nil {
		t.Fatal("double start accepted")
	}
	b.K.Advance(1000)
	if dma.Completed() != 1 {
		t.Fatalf("completed %d", dma.Completed())
	}
}

func TestDMAZeroThroughputPanics(t *testing.T) {
	b := New(testCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("wordsPerTick 0 accepted")
		}
	}()
	b.NewDMA(1, 0)
}
