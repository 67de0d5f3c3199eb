package board

import (
	"fmt"

	"repro/internal/rtos"
)

// DMA is an on-board copy engine, the kind of ASIC block the SCM2x0-class
// SoC offloads bulk transfers to: software programs a source window in a
// remote device's shadow registers, a destination buffer and a length;
// the engine then moves WordsPerTick words per HW timer tick in the
// background and raises its interrupt on completion. Like the watchdog it
// is free-running hardware synchronized to the timer — more of the board
// state that makes rollback-based synchronization impossible.
type DMA struct {
	b            *Board
	irq          int
	wordsPerTick int

	src    *RemoteDev
	srcOff uint32
	dst    []uint32
	pos    int
	busy   bool

	completed uint64
	moved     uint64
}

// NewDMA installs a DMA engine. irq is raised at each completion (attach
// a handler before the first Advance); wordsPerTick sets throughput.
func (b *Board) NewDMA(irq, wordsPerTick int) *DMA {
	if wordsPerTick < 1 {
		panic("board: DMA wordsPerTick must be ≥ 1")
	}
	d := &DMA{b: b, irq: irq, wordsPerTick: wordsPerTick}
	b.K.AddDevice(rtos.Device{
		Tick: func(uint64) { d.tick() },
		// An idle engine ignores every tick until a thread starts it.
		Quiet: func() uint64 {
			if d.busy {
				return 0
			}
			return rtos.WakeNever
		},
		// Adaptive-sync wake source: a busy engine raises its completion
		// interrupt a computable number of ticks from now; an idle engine
		// can only be started by a thread, which zeroes the lookahead by
		// being runnable.
		Wake: func() uint64 {
			if !d.busy {
				return rtos.WakeNever
			}
			rem := len(d.dst) - d.pos
			return uint64((rem + d.wordsPerTick - 1) / d.wordsPerTick)
		},
	})
	return d
}

// Start programs a transfer of len(dst) words from the device window at
// word offset off into dst. It fails when the engine is already busy or
// the source range overruns the window.
func (d *DMA) Start(src *RemoteDev, off uint32, dst []uint32) error {
	if d.busy {
		return fmt.Errorf("board: DMA busy")
	}
	if int(off)+len(dst) > int(src.size) {
		return fmt.Errorf("board: DMA source [%d,+%d) outside %s window", off, len(dst), src.name)
	}
	if len(dst) == 0 {
		return fmt.Errorf("board: DMA zero-length transfer")
	}
	d.src, d.srcOff, d.dst, d.pos = src, off, dst, 0
	d.busy = true
	return nil
}

// Busy reports whether a transfer is in progress.
func (d *DMA) Busy() bool { return d.busy }

// Completed returns the number of finished transfers.
func (d *DMA) Completed() uint64 { return d.completed }

// WordsMoved returns the total words copied.
func (d *DMA) WordsMoved() uint64 { return d.moved }

func (d *DMA) tick() {
	if !d.busy {
		return
	}
	n := d.wordsPerTick
	if rem := len(d.dst) - d.pos; n > rem {
		n = rem
	}
	block := d.src.PeekShadowBlock(d.srcOff+uint32(d.pos), uint32(n))
	copy(d.dst[d.pos:], block)
	d.pos += n
	d.moved += uint64(n)
	if d.pos == len(d.dst) {
		d.busy = false
		d.completed++
		d.b.K.PostIRQ(d.irq)
	}
}
