package rtos_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/board"
	"repro/internal/rtos"
)

// idleOutcome is everything an idle-ticks program can observe: the
// kernel's counters and clocks, the devices' counters and a log of what
// happened at which cycle.
type idleOutcome struct {
	Stats                  rtos.Stats
	Cycles, HWTick, SWTick uint64
	Barks, IRQBarks        uint64
	DMADone, DMAMoved      uint64
	Log                    []string
}

// TestIdleTicksMatchTickByTick runs seeded programs of Advance grants of
// random sizes against a board carrying a bark-only watchdog, a watchdog
// with an interrupt and a DMA engine, with threads that kick the
// watchdogs, start transfers, sleep and schedule alarms, and compares each
// with the same program on a kernel that also carries a device whose
// quiet bound is 0, so no tick is ever counted in bulk.
func TestIdleTicksMatchTickByTick(t *testing.T) {
	var ticks, observed uint64
	for _, perSW := range []uint64{1, 3, 7} {
		for seed := int64(1); seed <= 24; seed++ {
			got, seen := runIdleProgram(seed, perSW, false)
			want, wantSeen := runIdleProgram(seed, perSW, true)
			if wantSeen != want.Stats.TimerTicks {
				t.Fatalf("HWTicksPerSWTick %d seed %d: the zero-quiet device saw %d of %d ticks", perSW, seed, wantSeen, want.Stats.TimerTicks)
			}
			ticks += got.Stats.TimerTicks
			observed += seen
			if !reflect.DeepEqual(got.Log, want.Log) {
				for i := range min(len(got.Log), len(want.Log)) {
					if got.Log[i] != want.Log[i] {
						t.Fatalf("HWTicksPerSWTick %d seed %d: log line %d: %q, tick by tick %q", perSW, seed, i, got.Log[i], want.Log[i])
					}
				}
				t.Fatalf("HWTicksPerSWTick %d seed %d: %d log lines, tick by tick %d", perSW, seed, len(got.Log), len(want.Log))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("HWTicksPerSWTick %d seed %d:\n got %+v\nwant %+v", perSW, seed, got, want)
			}
		}
	}
	if observed >= ticks {
		t.Fatalf("no tick was counted in bulk: %d of %d ticks observed", observed, ticks)
	}
}

// runIdleProgram runs one seeded program and returns what it observed and
// how many ticks an extra observing device saw. That device never bounds
// the quiet count, unless tickByTick gives it a zero quiet bound.
func runIdleProgram(seed int64, perSW uint64, tickByTick bool) (idleOutcome, uint64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := board.DefaultConfig()
	cfg.RTOS.HWTicksPerSWTick = perSW
	cfg.RTOS.CyclesPerTick = []uint64{1, 7, 100}[rng.Intn(3)]
	b := board.New(cfg)
	k := b.K
	var out idleOutcome
	logf := func(format string, args ...any) {
		out.Log = append(out.Log, fmt.Sprintf("%d/%d/%d ", k.Cycles(), k.HWTick(), k.SWTick())+fmt.Sprintf(format, args...))
	}

	src, err := b.NewRemoteDev("/dev/src", 0, 64)
	if err != nil {
		panic(err)
	}
	const barkIRQ, dmaIRQ = 3, 5
	bark := b.NewWatchdog(uint64(2+rng.Intn(40)), -1)
	irqBark := b.NewWatchdog(uint64(2+rng.Intn(40)), barkIRQ)
	dma := b.NewDMA(dmaIRQ, 1+rng.Intn(4))
	barked := k.NewSemaphore("barked", 0)
	dmaDone := k.NewSemaphore("dma", 0)
	k.AttachInterrupt(barkIRQ, nil, func() { logf("bark irq"); barked.Post() })
	k.AttachInterrupt(dmaIRQ, nil, func() { logf("dma irq"); dmaDone.Post() })
	var seen uint64
	observer := rtos.Device{Tick: func(uint64) { seen++ }}
	if !tickByTick {
		observer.Quiet = func() uint64 { return rtos.WakeNever }
	}
	k.AddDevice(observer)

	trng := rand.New(rand.NewSource(seed * 7919))
	k.CreateThread("app", 10, func(c *rtos.ThreadCtx) {
		for {
			switch trng.Intn(7) {
			case 0:
				n := uint64(1 + trng.Intn(30))
				logf("sleep %d", n)
				c.Sleep(n)
			case 1:
				logf("kick")
				bark.Kick()
			case 2:
				logf("kick irq watchdog")
				irqBark.Kick()
			case 3:
				dst := make([]uint32, 1+trng.Intn(40))
				if dma.Start(src, uint32(trng.Intn(64-len(dst)+1)), dst) == nil {
					logf("dma start %d", len(dst))
					dmaDone.Wait(c)
					logf("dma done")
				}
			case 4:
				c.Charge(uint64(1 + trng.Intn(500)))
			case 5:
				n := uint64(trng.Intn(20))
				k.AlarmAfter(n, func() { logf("thread alarm %d", n) })
			case 6:
				n := uint64(1 + trng.Intn(200))
				logf("long sleep %d", n)
				c.Sleep(n)
			}
		}
	})
	k.CreateThread("barks", 12, func(c *rtos.ThreadCtx) {
		for {
			barked.Wait(c)
			logf("woken by bark")
			c.Charge(uint64(1 + trng.Intn(50)))
		}
	})
	for i := 0; i < 80; i++ {
		if rng.Intn(5) == 0 {
			n := uint64(rng.Intn(50))
			k.AlarmAfter(n, func() { logf("alarm %d", n) })
		}
		per := cfg.RTOS.CyclesPerTick
		grant := []uint64{0, 1, 2, per - 1, per, per + 1, 10 * per, 43*per + 21, 200 * per}[rng.Intn(9)]
		k.Advance(grant)
		logf("advanced %d", grant)
	}
	k.Shutdown()
	out.Stats = k.Stats()
	out.Cycles, out.HWTick, out.SWTick = k.Cycles(), k.HWTick(), k.SWTick()
	out.Barks, out.IRQBarks = bark.Barks(), irqBark.Barks()
	out.DMADone, out.DMAMoved = dma.Completed(), dma.WordsMoved()
	return out, seen
}
