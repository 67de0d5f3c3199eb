package rtos

import (
	"math"

	"repro/internal/sim"
)

// This file implements the kernel's half of the adaptive-synchronization
// negotiation: a conservative bound on how far virtual time can advance
// before anything schedulable can happen on the board, which the
// co-simulation slave reports to the hardware master in every time
// acknowledgement so the master may elongate the next quantum.

// WakeNever is returned by a wake source with no scheduled event.
const WakeNever = math.MaxUint64

// RegisterWakeSource registers an external tick-driven wake source — an
// on-board device such as a watchdog or DMA engine that may post an
// interrupt from a timer-tick hook. fn must return a lower bound, in HW
// ticks from now, until the source can next post an interrupt (0 when
// one may be imminent, WakeNever when nothing is scheduled). It is
// consulted by NextEventBound between quanta, never concurrently with
// Advance.
func (k *Kernel) RegisterWakeSource(fn func() uint64) {
	k.wakeSources = append(k.wakeSources, fn)
}

// NextEventBound returns a conservative bound, in CPU cycles from now,
// before which no thread can become runnable without outside input: 0
// when work is pending right now (a runnable thread, an undispatched
// interrupt), WakeNever when nothing is scheduled at all, and otherwise
// the exact cycle distance to the earliest alarm expiry or device wake.
// Everything that can ready a thread spontaneously is either an alarm
// (keyed on an absolute SW tick) or a registered wake source (keyed on
// HW ticks); both fire at absolute cycle positions that are independent
// of how the intervening virtual time is partitioned into quanta, which
// is what makes the bound safe to elongate over.
func (k *Kernel) NextEventBound() uint64 {
	if k.interruptsPending() || k.current != nil || k.readyMask != 0 {
		return 0
	}
	bound := uint64(WakeNever)
	if at := uint64(k.alarms.NextTime()); at != uint64(sim.MaxTime) {
		if at <= k.swTick {
			return 0
		}
		bound = k.cyclesToSWTick(at)
	}
	for _, fn := range k.wakeSources {
		ticks := fn()
		if ticks == 0 {
			return 0
		}
		if ticks != WakeNever {
			if c := k.cyclesToHWTicks(ticks); c < bound {
				bound = c
			}
		}
	}
	return bound
}

// cyclesToHWTicks returns the cycles from now until the n-th future HW
// tick fires (n ≥ 1): the partial distance to the next tick boundary
// plus n-1 whole tick periods.
func (k *Kernel) cyclesToHWTicks(n uint64) uint64 {
	toTick := k.cfg.CyclesPerTick - k.cycles%k.cfg.CyclesPerTick
	return toTick + (n-1)*k.cfg.CyclesPerTick
}

// cyclesToSWTick returns the cycles from now until the SW tick counter
// reaches `at` (at > current). The SW tick advances on every
// HWTicksPerSWTick-th HW tick, so the distance is the partial stretch to
// the next SW-tick boundary plus whole SW-tick periods.
func (k *Kernel) cyclesToSWTick(at uint64) uint64 {
	// HW ticks until the next SW-tick increment.
	hwRem := k.cfg.HWTicksPerSWTick - k.hwTick%k.cfg.HWTicksPerSWTick
	first := k.cyclesToHWTicks(hwRem)
	return first + (at-k.swTick-1)*k.cfg.HWTicksPerSWTick*k.cfg.CyclesPerTick
}
