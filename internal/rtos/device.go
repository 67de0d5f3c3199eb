package rtos

import (
	"math/bits"

	"repro/internal/sim"
)

// Device is on-board hardware clocked by the HW timer, such as a watchdog
// ASIC or a DMA engine. One registration (AddDevice) carries the three
// things the kernel asks of it: its tick, how many coming ticks it would
// ignore, and when it can next post an interrupt.
type Device struct {
	// Tick observes one HW tick in timer context; it may post interrupts
	// and must not block. It must not be nil.
	Tick func(hwTick uint64)
	// Quiet returns how many upcoming HW ticks Tick would ignore: on each
	// of them it would change nothing and post nothing. While no thread
	// can run, Advance counts such ticks without calling Tick. It asks
	// afresh each time the kernel idles, so the bound need only hold while
	// no thread, ISR, DSR or alarm runs. nil means 0: Tick sees every
	// tick.
	Quiet func() uint64
	// Wake returns a lower bound, in HW ticks from now, until the device
	// can next post an interrupt: 0 when one may be imminent, WakeNever
	// when nothing is scheduled. NextEventBound consults it between
	// quanta, never concurrently with Advance. nil means WakeNever.
	Wake func() uint64
}

// AddDevice registers an on-board device. Devices tick in registration
// order.
func (k *Kernel) AddDevice(d Device) {
	k.devices = append(k.devices, d)
}

// idleTicks returns how many whole HW ticks an idle kernel may count
// without running the timer path: the fewest of the ticks that fire within
// the budget, the ticks before the one that reaches the next alarm's SW
// tick, and every device's quiet bound. None of those ticks can expire an
// alarm, ready a thread, post an interrupt or change a device, and with
// no thread current the timeslice accounting does nothing.
func (k *Kernel) idleTicks() uint64 {
	if k.budgetLeft < k.toTick {
		return 0
	}
	n := 1 + (k.budgetLeft-k.toTick)/k.cfg.CyclesPerTick
	if at := uint64(k.alarms.NextTime()); at != uint64(sim.MaxTime) {
		// The SW tick is the HW tick divided by HWTicksPerSWTick, so it
		// reaches at (a past alarm expires at the next SW tick) at HW
		// tick at·HWTicksPerSWTick.
		per := k.cfg.HWTicksPerSWTick
		if hi, lo := bits.Mul64(max(at, k.swTick+1)-k.swTick, per); hi == 0 {
			n = min(n, lo-k.hwTick%per-1)
		}
	}
	for i := 0; i < len(k.devices) && n > 0; i++ {
		quiet := k.devices[i].Quiet
		if quiet == nil {
			return 0
		}
		n = min(n, quiet())
	}
	return n
}

// skipTicks moves idle time across n ≥ 1 whole HW ticks that idleTicks
// allowed, by the counters the timer path would have moved.
func (k *Kernel) skipTicks(n uint64) {
	cycles := k.cyclesToHWTicks(n)
	k.cycles += cycles
	k.stats.IdleCycles += cycles
	k.consumeBudget(cycles)
	k.toTick = k.cfg.CyclesPerTick
	sw := (k.hwTick%k.cfg.HWTicksPerSWTick + n) / k.cfg.HWTicksPerSWTick
	k.hwTick += n
	k.stats.TimerTicks += n
	k.swTick += sw
	k.stats.SWTicks += sw
}
