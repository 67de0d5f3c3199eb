// Package board implements the virtual embedded board that stands in for
// the paper's Ultimodule SCM2x0: a CPU clock domain running the rtos
// kernel, a hardware timer, on-board peripherals (a free-running watchdog
// ASIC), and — the paper's key OS modification — the *remote device
// driver* through which application software reaches hardware that only
// exists inside the simulator on the other end of the co-simulation link.
//
// A Board is the slave side of the virtual-tick protocol, and it is a
// cosim.Federate: it freezes in the OS idle state until it is granted a
// quantum (Step), advances the kernel by the granted virtual ticks,
// applying the device traffic staged by Exchange at the grant's lead,
// and hands back, at the next Exchange, the traffic its remote devices
// posted meanwhile. Traffic in both directions is hdlsim.DataMsg, the
// event the simulator's kernel and the federation use. The time manager
// steps a Board in-process; cosim.Serve takes the same steps from the
// grants of a wire link, so a board behind a link runs the same code.
package board

import (
	"fmt"

	"repro/internal/cosim"
	"repro/internal/hdlsim"
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

	cur    cosim.SimTime    // virtual time granted so far
	lead   uint64           // of the next Step, see SetGrantLead
	staged []hdlsim.DataMsg // inbound, applied at the next Step
	outbox []hdlsim.DataMsg // posted by the remote devices since the last Exchange
	out    []hdlsim.DataMsg // swap buffer for outbox
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
		if hdlsim.InWindow(addr, d.base, d.size) {
			return d
		}
	}
	return nil
}

// apply routes a grant's traffic in arrival order: a write lands
// in its device's shadow window, a read response completes a split-phase
// read, and an interrupt is latched on the kernel's controller. The order
// within a grant does not matter: PostIRQ only latches, and the DSR runs
// later, inside Advance, after every write of the grant has landed — so
// it observes the data that accompanied its interrupt, as a real bus
// orders a DMA completion write before its interrupt.
func (b *Board) apply(traffic []hdlsim.DataMsg) error {
	for _, m := range traffic {
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

// Exchange implements cosim.Federate: inbound events are staged for the
// next Step, and the traffic the remote devices posted since the last
// call is returned. Words ownership passes with each event; the returned
// slice is reused by the next Exchange.
func (b *Board) Exchange(in []hdlsim.DataMsg) ([]hdlsim.DataMsg, error) {
	b.staged = append(b.staged, in...)
	out := b.outbox
	b.outbox = b.out[:0]
	b.out = out
	return out, nil
}

// SetGrantLead implements cosim.LeadSink: the next Step applies the
// staged traffic ticks into its grant.
func (b *Board) SetGrantLead(ticks uint64) { b.lead = ticks }

// Step implements cosim.Federate: one grant of the ticks up to until. A
// grant carrying staged traffic runs its lead ticks first, then applies
// the traffic and runs the rest, so the traffic lands at the start of
// the simulator quantum that produced it; the schedule only elongates a
// grant over ticks in which the board promised to stay idle.
func (b *Board) Step(until cosim.SimTime) (cosim.SimTime, error) {
	if until < b.cur {
		return b.cur, fmt.Errorf("board: step backwards (%d < %d)", until, b.cur)
	}
	ticks := uint64(until - b.cur)
	if b.lead > ticks {
		return b.cur, fmt.Errorf("board: grant lead %d exceeds its %d ticks", b.lead, ticks)
	}
	rest := ticks
	if b.lead > 0 && len(b.staged) > 0 {
		b.K.Advance(b.lead * b.cfg.CyclesPerGrantTick)
		rest -= b.lead
	}
	if err := b.apply(b.staged); err != nil {
		return b.cur, err
	}
	b.staged = b.staged[:0]
	b.stats.Grants++
	b.stats.TicksGranted += ticks
	b.K.Advance(rest * b.cfg.CyclesPerGrantTick)
	b.cur = until
	return until, nil
}

// Done implements cosim.Federate: a board never ends the run on its own.
func (b *Board) Done() bool { return false }

// Finish implements cosim.Federate: it releases the kernel's threads.
func (b *Board) Finish(at cosim.SimTime) error {
	b.K.Shutdown()
	return nil
}

// BoardTime implements cosim.BoardClock.
func (b *Board) BoardTime() (cycle, swTick uint64) {
	return b.K.Cycles(), b.K.SWTick()
}

// post queues one event from a remote device for the next Exchange.
func (b *Board) post(m hdlsim.DataMsg) { b.outbox = append(b.outbox, m) }

var _ cosim.Federate = (*Board)(nil)
var _ cosim.BoardClock = (*Board)(nil)
var _ cosim.LeadSink = (*Board)(nil)
