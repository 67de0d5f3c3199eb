package router

import (
	"errors"
	"fmt"
	"net"

	"repro/internal/board"
	"repro/internal/checksum"
	"repro/internal/cosim"
	"repro/internal/iss"
	"repro/internal/packet"
	"repro/internal/rtos"
)

// TimingModel selects how the board application's checksum cost is
// obtained.
type TimingModel int

const (
	// TimingISS executes the checksum kernel on the RV32 instruction-set
	// simulator and charges the measured cycles (the accurate model).
	TimingISS TimingModel = iota
	// TimingAnnotated charges an analytic per-packet cost (base + per-word),
	// the cheaper timing-annotation approach of the paper's refs [14,15].
	TimingAnnotated
)

// String implements fmt.Stringer.
func (m TimingModel) String() string {
	if m == TimingAnnotated {
		return "annotated"
	}
	return "iss"
}

// AppConfig parameterizes the board application.
type AppConfig struct {
	// Timing selects the software timing model.
	Timing TimingModel
	// AnnotatedBase/PerWord are the analytic costs (cycles) when Timing is
	// TimingAnnotated. The defaults approximate the ISS measurement.
	AnnotatedBase, AnnotatedPerWord uint64
	// MailboxCap bounds the DSR→application packet queue.
	MailboxCap int
	// Priority is the application thread's priority.
	Priority int
	// Engine selects which router checksum engine this board serves (its
	// device window is EngineBase(Engine) and its IRQ EngineIRQ(Engine)).
	Engine int
	// WatchdogTimeout, if non-zero, installs a watchdog with that timeout
	// (in HW ticks) which the application must keep kicking.
	WatchdogTimeout uint64
}

// DefaultAppConfig matches the experiments.
func DefaultAppConfig() AppConfig {
	return AppConfig{
		Timing:           TimingISS,
		AnnotatedBase:    60,
		AnnotatedPerWord: 9,
		MailboxCap:       64,
		Priority:         10,
		WatchdogTimeout:  0,
	}
}

// AppStats counts board-application activity.
type AppStats struct {
	Delivered uint64 // packets the DSR handed to the application
	Verified  uint64 // packets found intact
	Corrupt   uint64 // packets found corrupted
	Overruns  uint64 // RX-ring slots overwritten before the DSR drained them
	MboxDrops uint64 // DSR deliveries refused by a full mailbox
	ISSCycles uint64 // cycles spent in the checksum kernel
}

// BoardApp is the paper's "C application computing the checksum, executing
// on a SCM220 Ultimodule board running the eCos operating system" — here a
// kernel thread on the virtual board, fed by the remote device driver's
// DSR, computing the checksum on the ISS and writing the verdict back
// through the driver.
type BoardApp struct {
	cfg AppConfig
	dev *board.RemoteDev
	mb  *rtos.Mailbox
	wd  *board.Watchdog

	lastSeq uint32 // DSR-owned

	cks      iss.ChecksumRunner // persistent ISS for TimingISS verification
	wordsBuf []uint16           // reused checksum-input scratch (app-thread-owned)
	msgFree  [][]uint32         // recycled mailbox messages; DSR and app thread
	// share one kernel goroutine, so the freelist needs no locking

	stats AppStats
}

// InstallBoardApp wires the application onto a board: it attaches the
// packet ISR/DSR to IRQPacket, creates the service mailbox and spawns the
// verification thread.
func InstallBoardApp(b *board.Board, dev *board.RemoteDev, cfg AppConfig) (*BoardApp, error) {
	if cfg.MailboxCap < 1 {
		return nil, fmt.Errorf("router: mailbox capacity must be ≥ 1")
	}
	app := &BoardApp{cfg: cfg, dev: dev}
	app.mb = b.K.NewMailbox("router.rx", cfg.MailboxCap)
	if cfg.WatchdogTimeout > 0 {
		app.wd = b.NewWatchdog(cfg.WatchdogTimeout, -1)
	}

	// The ISR acknowledges the device; the DSR drains every RX slot the
	// sequence register says is new. Interrupt coalescing is handled by
	// the sequence numbers: however many IRQ packets were merged into one
	// pending latch, the DSR catches up to the newest sequence.
	b.K.AttachInterrupt(int(EngineIRQ(cfg.Engine)), nil, func() { app.drainRing() })

	b.K.CreateThread("checksum-app", cfg.Priority, func(c *rtos.ThreadCtx) {
		app.serve(c)
	})
	return app, nil
}

// Stats returns the application counters.
func (a *BoardApp) Stats() AppStats { return a.stats }

// Watchdog returns the installed watchdog (nil if none).
func (a *BoardApp) Watchdog() *board.Watchdog { return a.wd }

// drainRing runs in DSR context: it reads every new slot from the shadow
// window and queues it for the application thread. All register offsets
// are window-relative (the device window begins at the engine base).
func (a *BoardApp) drainRing() {
	newest := a.dev.PeekShadow(RegRxSeq)
	for seq := a.lastSeq + 1; seq <= newest; seq++ {
		if newest-seq >= NumSlots {
			a.stats.Overruns++ // slot already overwritten
			continue
		}
		var msg []uint32
		if n := len(a.msgFree); n > 0 {
			msg = a.msgFree[n-1][:0]
			a.msgFree[n-1] = nil
			a.msgFree = a.msgFree[:n-1]
		} else {
			msg = make([]uint32, 0, SlotWords+1)
		}
		msg = append(msg, seq)
		msg = a.dev.AppendShadowBlock(msg, SlotAddr(seq), SlotWords)
		if !a.mb.TryPut(msg) {
			a.stats.MboxDrops++
			a.msgFree = append(a.msgFree, msg)
		}
	}
	a.lastSeq = newest
}

// serve is the application thread body: receive, verify, respond.
func (a *BoardApp) serve(c *rtos.ThreadCtx) {
	for {
		msg := a.mb.Get(c)
		seq := msg[0]
		slot := msg[1:]
		nWords := slot[0]
		if int(nWords) > len(slot)-1 {
			nWords = uint32(len(slot) - 1)
		}
		// Unpack cost: one word copied per bus word.
		c.Charge(2 * uint64(nWords))
		p, _, err := packet.Decode(slot[1 : 1+nWords])
		valid := err == nil && a.verify(c, p)
		a.stats.Delivered++
		if valid {
			a.stats.Verified++
		} else {
			a.stats.Corrupt++
		}
		verdict := uint32(0)
		if valid {
			verdict = 1
		}
		// The verdict pair is allocated per packet on purpose: the link may
		// keep the slice in flight across quanta, so a reused scratch here
		// would alias live wire data.
		if _, err := a.dev.Write(c, RegVerdictBase, []uint32{seq, verdict}); err != nil {
			// A closed transport here is not a bug: cancellation or peer
			// shutdown tears the link down while the board may still be
			// mid-quantum with a verdict in hand. Exit the thread and let
			// the run's own error (context cause, link teardown) surface;
			// any other write failure is still fatal.
			if errors.Is(err, cosim.ErrClosed) || errors.Is(err, net.ErrClosed) {
				return
			}
			panic(fmt.Sprintf("router: verdict write failed: %v", err))
		}
		if a.wd != nil {
			a.wd.Kick()
		}
		// msg is fully consumed (verify copies what it needs), so the
		// buffer can go back to the DSR's freelist.
		a.msgFree = append(a.msgFree, msg)
	}
}

// verify computes the checksum of p's contents and compares it with the
// stored field, charging the software cost per the configured model.
func (a *BoardApp) verify(c *rtos.ThreadCtx, p packet.Packet) bool {
	a.wordsBuf = appendChecksumInputWords(a.wordsBuf[:0], p)
	words := a.wordsBuf
	switch a.cfg.Timing {
	case TimingISS:
		cks, cycles, err := a.cks.Run(words)
		if err != nil {
			panic(fmt.Sprintf("router: ISS checksum: %v", err))
		}
		a.stats.ISSCycles += cycles
		c.Charge(cycles)
		return cks == p.Checksum
	default: // TimingAnnotated
		cost := a.cfg.AnnotatedBase + a.cfg.AnnotatedPerWord*uint64(len(words))
		c.Charge(cost)
		return checksum.InternetWords(words) == p.Checksum
	}
}

// checksumInputWords flattens the checksummed packet fields to 16-bit
// words in the same order as packet.ComputeChecksum.
func checksumInputWords(p packet.Packet) []uint16 {
	return appendChecksumInputWords(make([]uint16, 0, 4+2*len(p.Data)), p)
}

// appendChecksumInputWords is the allocation-free form: it appends the
// flattened words to dst (hot callers pass a reused scratch slice).
func appendChecksumInputWords(dst []uint16, p packet.Packet) []uint16 {
	dst = append(dst, p.Src, p.Dst, uint16(p.ID>>16), uint16(p.ID))
	for _, d := range p.Data {
		dst = append(dst, uint16(d>>16), uint16(d))
	}
	return dst
}
