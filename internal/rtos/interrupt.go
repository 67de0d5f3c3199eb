package rtos

import (
	"fmt"
	"math/bits"
)

// NumIRQs is the size of the board's interrupt vector.
const NumIRQs = 32

// irqLine is one interrupt vector entry with eCos's ISR/DSR split: the ISR
// runs with interrupts effectively masked and decides whether to schedule
// the DSR; the DSR runs afterwards and may use kernel services (waking
// threads, posting to mailboxes).
type irqLine struct {
	num       int
	attached  bool
	enabled   bool
	pending   bool
	dsrQueued bool
	isr       func() bool // return true to request the DSR
	dsr       func()
}

// interruptController mirrors the per-line pending/enabled flags in two
// bitmasks (bit n ⇔ line n), so finding the next deliverable vector is one
// AND and a trailing-zero count instead of a scan of the vector table.
type interruptController struct {
	lines   [NumIRQs]irqLine
	pend    uint32 // bit n ⇔ lines[n].pending
	enab    uint32 // bit n ⇔ lines[n].enabled
	dsrq    []*irqLine
	dsrHead int // consumed prefix of dsrq; backing array reused once drained
}

func (ic *interruptController) init() {
	for i := range ic.lines {
		ic.lines[i].num = i
	}
}

func (ic *interruptController) pendingEnabled() bool { return ic.pend&ic.enab != 0 }

// nextPending claims the lowest-numbered pending+enabled line (hardware
// priority by vector number) and clears its pending latch.
func (ic *interruptController) nextPending() *irqLine {
	m := ic.pend & ic.enab
	if m == 0 {
		return nil
	}
	n := bits.TrailingZeros32(m)
	ic.pend &^= 1 << n
	l := &ic.lines[n]
	l.pending = false
	return l
}

func (ic *interruptController) setEnabled(irq int, on bool) {
	ic.lines[irq].enabled = on
	if on {
		ic.enab |= 1 << irq
	} else {
		ic.enab &^= 1 << irq
	}
}

func (ic *interruptController) queueDSR(l *irqLine) {
	if l.dsrQueued {
		return
	}
	l.dsrQueued = true
	ic.dsrq = append(ic.dsrq, l)
}

func (ic *interruptController) nextDSR() *irqLine {
	if ic.dsrHead >= len(ic.dsrq) {
		if len(ic.dsrq) > 0 {
			// Fully drained: rewind so the backing array is reused instead
			// of creeping forward one slice header per DSR.
			ic.dsrq = ic.dsrq[:0]
			ic.dsrHead = 0
		}
		return nil
	}
	l := ic.dsrq[ic.dsrHead]
	ic.dsrq[ic.dsrHead] = nil
	ic.dsrHead++
	if ic.dsrHead == len(ic.dsrq) {
		ic.dsrq = ic.dsrq[:0]
		ic.dsrHead = 0
	}
	l.dsrQueued = false
	return l
}

// checkIRQ panics with a named cause on a vector outside the table, so a
// wiring error never degrades into a silent no-op on the masks.
func checkIRQ(irq int) {
	if irq < 0 || irq >= NumIRQs {
		panic(fmt.Sprintf("rtos: IRQ %d out of range", irq))
	}
}

// AttachInterrupt installs the ISR/DSR pair for a vector and enables it.
// The ISR returns true to request DSR execution (eCos CYG_ISR_CALL_DSR).
// Either handler may be nil: a nil ISR defaults to requesting the DSR; a
// nil DSR is simply skipped.
func (k *Kernel) AttachInterrupt(irq int, isr func() bool, dsr func()) {
	checkIRQ(irq)
	l := &k.irq.lines[irq]
	if l.attached {
		panic(fmt.Sprintf("rtos: IRQ %d already attached", irq))
	}
	l.attached = true
	l.isr = isr
	l.dsr = dsr
	k.irq.setEnabled(irq, true)
}

// MaskInterrupt disables delivery for a vector (pending requests are held).
func (k *Kernel) MaskInterrupt(irq int) {
	checkIRQ(irq)
	k.irq.setEnabled(irq, false)
}

// UnmaskInterrupt re-enables delivery.
func (k *Kernel) UnmaskInterrupt(irq int) {
	checkIRQ(irq)
	k.irq.setEnabled(irq, true)
}

// PostIRQ latches an interrupt request on the vector. It is dispatched at
// the next safe point inside Advance (quantum start, tick boundary, or
// thread yield). Posting an unattached vector is a board wiring error.
func (k *Kernel) PostIRQ(irq int) {
	checkIRQ(irq)
	l := &k.irq.lines[irq]
	if !l.attached {
		panic(fmt.Sprintf("rtos: IRQ %d posted but no handler attached", irq))
	}
	l.pending = true
	k.irq.pend |= 1 << irq
}

// IRQPending reports whether the vector is latched (for tests/diagnostics).
func (k *Kernel) IRQPending(irq int) bool {
	checkIRQ(irq)
	return k.irq.lines[irq].pending
}
