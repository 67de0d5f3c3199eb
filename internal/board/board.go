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
// time back. Traffic in both directions is hdlsim.DataMsg, the event the
// simulator's kernel and the federation use: a grant carries the
// simulator's, and the board's remote devices send theirs through the
// board's one Link — the wire endpoint under Run, the time manager's
// exchange under Federate.
package board

import (
	"fmt"

	"repro/internal/cosim"
	"repro/internal/hdlsim"
	"repro/internal/rtos"
)

// Link is the board's outbound half of the co-simulation link: its remote
// devices send posted writes and split-phase read requests through it.
// *cosim.BoardEndpoint implements it for a wire board; a Federate
// substitutes a buffer the time manager exchanges at quantum boundaries.
type Link interface {
	Send(hdlsim.DataMsg) error
}

var _ Link = (*cosim.BoardEndpoint)(nil)

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
	link  Link // set by Run or NewFederate
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

// applyGrant routes the grant's traffic in arrival order: a write lands
// in its device's shadow window, a read response completes a split-phase
// read, and an interrupt is latched on the kernel's controller. The order
// within a grant does not matter: PostIRQ only latches, and the DSR runs
// later, inside Advance, after every write of the grant has landed — so
// it observes the data that accompanied its interrupt, as a real bus
// orders a DMA completion write before its interrupt.
func (b *Board) applyGrant(g cosim.Grant) error {
	for _, m := range g.Traffic {
		switch m.Kind {
		case hdlsim.DataWrite, hdlsim.DataReadResp:
			d := b.findDev(m.Addr)
			if d == nil {
				return fmt.Errorf("board: %v for unmapped address %#x", m.Kind, m.Addr)
			}
			if m.Kind == hdlsim.DataReadResp {
				d.deliverReadResp(m.Words)
				b.stats.ReadResps++
				continue
			}
			if err := d.applyWrite(m); err != nil {
				return err
			}
			b.stats.WriteBlocks++
		case hdlsim.DataInterrupt:
			if !b.K.InterruptAttached(int(m.IRQ)) {
				return fmt.Errorf("board: no handler attached to interrupt line %d", m.IRQ)
			}
			b.K.PostIRQ(int(m.IRQ))
			b.stats.IRQsDelivered++
		default:
			return fmt.Errorf("board: unexpected %v message for the board", m.Kind)
		}
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
	if g.Lead > 0 && len(g.Traffic) > 0 {
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
// finishes (or a protocol error occurs), with ep as the board's Link. It
// owns the calling goroutine.
func (b *Board) Run(ep *cosim.BoardEndpoint) error {
	defer b.K.Shutdown()
	b.link = ep
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
