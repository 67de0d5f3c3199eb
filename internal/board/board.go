// Package board implements the virtual embedded board that stands in for
// the paper's Ultimodule SCM2x0: a CPU clock domain running the rtos
// kernel, a hardware timer, on-board peripherals (a free-running watchdog
// ASIC), and — the paper's key OS modification — the *remote device
// driver* through which application software reaches hardware that only
// exists inside the simulator on the other end of the co-simulation link.
//
// The board's main loop (Run) is the slave side of the virtual-tick
// protocol: it freezes in the OS idle state until the simulator grants a
// quantum, advances the kernel by the granted virtual ticks, applying the
// tunnelled device traffic at the grant's lead, and reports its local
// time back.
package board

import (
	"fmt"

	"repro/internal/cosim"
	"repro/internal/rtos"
)

// Config parameterizes the board.
type Config struct {
	// RTOS is the kernel timing configuration.
	RTOS rtos.Config
	// CyclesPerGrantTick converts one granted virtual tick (one HDL clock
	// cycle on the simulator side) into board CPU cycles. With the default
	// of 100 and the default rtos CyclesPerTick of 100, one virtual tick
	// equals one HW timer tick — the paper's "the SystemC device
	// determines the advance of time" in its tightest form.
	CyclesPerGrantTick uint64
	// MMIORead/MMIOWriteCost are the bus cycles charged per word for
	// remote-device register access from application threads.
	MMIOReadCost, MMIOWriteCost uint64
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		RTOS:               rtos.DefaultConfig(),
		CyclesPerGrantTick: 100,
		MMIOReadCost:       4,
		MMIOWriteCost:      4,
	}
}

// Stats aggregates board-side co-simulation counters.
type Stats struct {
	Grants        uint64
	TicksGranted  uint64
	IRQsDelivered uint64
	WriteBlocks   uint64
	ReadResps     uint64
}

// Board is one virtual SCM2x0-class board.
type Board struct {
	K   *rtos.Kernel
	cfg Config

	devs  []*RemoteDev
	stats Stats
}

// New creates a board and boots its kernel.
func New(cfg Config) *Board {
	if cfg.CyclesPerGrantTick == 0 {
		cfg.CyclesPerGrantTick = 1
	}
	return &Board{K: rtos.NewKernel(cfg.RTOS), cfg: cfg}
}

// Cfg returns the board configuration.
func (b *Board) Cfg() Config { return b.cfg }

// Stats returns the co-simulation counters.
func (b *Board) Stats() Stats { return b.stats }

// findDev returns the remote device whose window covers addr.
func (b *Board) findDev(addr uint32) *RemoteDev {
	for _, d := range b.devs {
		if addr >= d.base && addr < d.base+d.size {
			return d
		}
	}
	return nil
}

// applyGrant routes the grant's tunnelled traffic: posted writes update
// device shadow windows, read responses complete split-phase reads, and
// interrupts are latched on the kernel's controller. Writes are applied
// before interrupts so a DSR triggered by an IRQ observes the data that
// accompanied it — the same ordering a real bus guarantees between a DMA
// completion write and its interrupt.
func (b *Board) applyGrant(g cosim.Grant) error {
	for _, w := range g.Writes {
		d := b.findDev(w.Addr)
		if d == nil {
			return fmt.Errorf("board: simulator wrote unmapped address %#x", w.Addr)
		}
		if err := d.applyWrite(w); err != nil {
			return err
		}
		b.stats.WriteBlocks++
	}
	for _, r := range g.ReadResps {
		d := b.findDev(r.Addr)
		if d == nil {
			return fmt.Errorf("board: read response for unmapped address %#x", r.Addr)
		}
		d.deliverReadResp(r)
		b.stats.ReadResps++
	}
	for _, irq := range g.Interrupts {
		b.K.PostIRQ(int(irq))
		b.stats.IRQsDelivered++
	}
	return nil
}

// Lookahead returns the board's promise for the adaptive-sync
// negotiation: the number of whole grant ticks that can elapse before
// anything can become runnable on the board without simulator input.
// It floors the kernel's cycle bound (conservative) and passes
// cosim.UnboundedLookahead through when nothing is scheduled at all.
func (b *Board) Lookahead() uint64 {
	bound := b.K.NextEventBound()
	if bound == rtos.WakeNever {
		return cosim.UnboundedLookahead
	}
	return bound / b.cfg.CyclesPerGrantTick
}

// runGrant advances the kernel through one grant. A grant carrying
// traffic runs its lead ticks first, then applies the traffic and runs
// the rest, so the traffic lands at the start of the simulator quantum
// that produced it; the schedule only elongates a grant over ticks in
// which the board promised to stay idle.
func (b *Board) runGrant(g cosim.Grant) error {
	if g.Lead > g.Ticks {
		return fmt.Errorf("board: grant lead %d exceeds its %d ticks", g.Lead, g.Ticks)
	}
	rest := g.Ticks
	if g.Lead > 0 && len(g.Writes)+len(g.ReadResps)+len(g.Interrupts) > 0 {
		b.K.Advance(g.Lead * b.cfg.CyclesPerGrantTick)
		rest -= g.Lead
	}
	if err := b.applyGrant(g); err != nil {
		return err
	}
	b.stats.Grants++
	b.stats.TicksGranted += g.Ticks
	b.K.Advance(rest * b.cfg.CyclesPerGrantTick)
	return nil
}

// Run executes the board side of the co-simulation until the simulator
// finishes (or a protocol error occurs). It owns the calling goroutine.
func (b *Board) Run(ep *cosim.BoardEndpoint) error {
	defer b.K.Shutdown()
	for {
		g, err := ep.WaitGrant()
		if err != nil {
			return err
		}
		if g.Finished {
			return ep.FinishAck(b.K.Cycles(), b.K.SWTick())
		}
		if err := b.runGrant(g); err != nil {
			return err
		}
		if err := ep.Ack(b.K.Cycles(), b.K.SWTick(), b.Lookahead()); err != nil {
			return err
		}
	}
}
