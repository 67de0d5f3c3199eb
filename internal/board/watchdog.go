package board

import (
	"fmt"

	"repro/internal/rtos"
)

// Watchdog is a free-running on-board ASIC synchronized to the hardware
// timer: if software does not kick it within Timeout HW ticks it records a
// bark (and optionally raises an interrupt). Its existence is the paper's
// argument for why rollback-based optimistic synchronization cannot be
// used with a real board — "the board may include some hardware devices
// which synchronize their work by exploiting the timer value, thus
// rollback cannot be implemented" — and its tests pin down that our
// virtual-tick scheme keeps it healthy while arbitrary-length freezes
// between quanta never age it (the timer only advances on granted ticks).
type Watchdog struct {
	b       *Board
	timeout uint64
	lastPet uint64 // HW tick of the last kick
	barks   uint64
	irq     int // -1: none
}

// NewWatchdog installs a watchdog with the given timeout in HW ticks.
// irq ≥ 0 raises that interrupt on each bark (the handler must be attached
// by the application); pass -1 to only count barks.
func (b *Board) NewWatchdog(timeoutTicks uint64, irq int) *Watchdog {
	if timeoutTicks == 0 {
		panic("board: watchdog timeout must be ≥ 1 tick")
	}
	w := &Watchdog{b: b, timeout: timeoutTicks, irq: irq}
	b.K.AddDevice(rtos.Device{
		Tick: func(hwTick uint64) {
			if hwTick-w.lastPet >= w.timeout {
				w.barks++
				w.lastPet = hwTick // rearm so a dead app barks once per timeout
				if w.irq >= 0 {
					b.K.PostIRQ(w.irq)
				}
			}
		},
		// Every tick before the next bark only compares the tick number,
		// so an idle kernel may count those ticks in bulk.
		Quiet: func() uint64 {
			if n := w.untilBark(); n > 1 {
				return n - 1
			}
			return 0
		},
		// Adaptive-sync wake source: the next bark is a scheduled
		// interrupt the lookahead must not elongate over. Bark-only
		// watchdogs never wake a thread, so they don't bound the
		// lookahead (their bark counter advances identically however the
		// quanta are partitioned).
		Wake: func() uint64 {
			if w.irq < 0 {
				return rtos.WakeNever
			}
			return w.untilBark()
		},
	})
	return w
}

// untilBark returns the HW ticks from now to the tick that barks, or 0
// when the next tick barks late (a watchdog installed after its timeout
// had run out).
func (w *Watchdog) untilBark() uint64 {
	due := w.lastPet + w.timeout
	if h := w.b.K.HWTick(); due > h {
		return due - h
	}
	return 0
}

// Kick resets the watchdog countdown; call it from application threads.
func (w *Watchdog) Kick() { w.lastPet = w.b.K.HWTick() }

// Barks returns how many times the watchdog expired.
func (w *Watchdog) Barks() uint64 { return w.barks }

// String implements fmt.Stringer.
func (w *Watchdog) String() string {
	return fmt.Sprintf("watchdog{timeout=%d ticks, barks=%d}", w.timeout, w.barks)
}
