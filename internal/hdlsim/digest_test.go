package hdlsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// kernelTraceDigest pins the kernel's observable schedule: every process
// activation of kernelDigestDesigns random designs hashed with the instant
// it ran at and every signal value it could read, plus each run's final
// Stats and clock cycle counts. A kernel change that moves an activation,
// a committed value or a counter changes the digest.
const kernelTraceDigest = "ed5d1026f48797ae12b4b59a0691cae1bdb2a4590a57cee73c1afd39e5f05389"

const kernelDigestDesigns = 320

func TestKernelTraceDigest(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= kernelDigestDesigns; seed++ {
		if err := traceRandomDesign(h, seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != kernelTraceDigest {
		t.Fatalf("kernel trace digest = %s, want %s", got, kernelTraceDigest)
	}
}

// digestDesign is one generated design and the hash its run feeds.
type digestDesign struct {
	h      hash.Hash
	seed   int64
	s      *Simulator
	clocks []*Clock
	sigs   []*Signal[int]
	wire   *ResolvedSignal
	drv    [2]*LogicDriver
	events []*Event
	buf    []byte
}

// record hashes one activation: seed, instant, process and every value.
func (d *digestDesign) record(proc int) {
	b := d.buf[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(d.seed))
	b = binary.LittleEndian.AppendUint64(b, uint64(d.s.Now()))
	b = binary.LittleEndian.AppendUint32(b, uint32(proc))
	for _, c := range d.clocks {
		if c.Read() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for _, sig := range d.sigs {
		b = binary.LittleEndian.AppendUint64(b, uint64(sig.Read()))
	}
	b = append(b, byte(d.wire.Read()))
	d.buf = b
	d.h.Write(b)
}

// traceClock hashes one committed clock level reported to a tracer.
func (d *digestDesign) traceClock(clk int, at sim.Time, v bool) {
	b := d.buf[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(d.seed))
	b = binary.LittleEndian.AppendUint64(b, uint64(at))
	b = binary.LittleEndian.AppendUint32(b, uint32(clk)|1<<31)
	if v {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	d.buf = b
	d.h.Write(b)
}

// notifyTarget draws the event a thread notifies, delays or cancels:
// mostly one of the design's own events, sometimes a clock's edge or
// value-changed event, whose pending notifications a committed edge must
// cancel.
func (d *digestDesign) notifyTarget(rng *rand.Rand) *Event {
	if rng.Intn(4) != 0 {
		return d.events[rng.Intn(len(d.events))]
	}
	c := d.clocks[rng.Intn(len(d.clocks))]
	switch rng.Intn(3) {
	case 0:
		return c.Posedge()
	case 1:
		return c.Negedge()
	}
	return c.Signal().Changed()
}

// sum folds the signals a process reads into the value it writes.
func (d *digestDesign) sum(upTo int) int {
	v := 0
	for _, sig := range d.sigs[:upTo] {
		v = v*31 + sig.Read()
	}
	return v
}

// traceRandomDesign builds the design for seed, runs it and hashes its
// trace into h.
//
// Clocks get small even periods, so edges of different clocks coincide
// and some periods are equal. Method i writes signal i and is sensitive
// to a clock edge, a clock's value-changed event or a lower-numbered
// signal, so value-change sensitivities form a DAG. Threads draw their
// waits (time, timeout, counted cycles, any-of) and their notifications
// (delta, delayed including 0, cancel, sometimes of a clock's events)
// from their own seeded source. Every clock signal carries a tracer.
func traceRandomDesign(h hash.Hash, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	s := NewSimulator(fmt.Sprintf("d%d", seed))
	d := &digestDesign{h: h, seed: seed, s: s}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		c := s.NewClock(fmt.Sprintf("clk%d", i), sim.Time(2*(1+rng.Intn(5))))
		c.Signal().Trace(func(at sim.Time, v bool) { d.traceClock(i, at, v) })
		d.clocks = append(d.clocks, c)
	}
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		d.sigs = append(d.sigs, NewSignal[int](s, fmt.Sprintf("s%d", i)))
	}
	d.wire = NewResolvedSignal(s, "wire")
	d.drv = [2]*LogicDriver{d.wire.NewDriver(), d.wire.NewDriver()}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		d.events = append(d.events, s.NewEvent(fmt.Sprintf("e%d", i)))
	}
	proc := 0
	for i := range d.sigs {
		id, i := proc, i
		proc++
		var sens *Event
		clk := d.clocks[rng.Intn(len(d.clocks))]
		switch k := rng.Intn(4); {
		case k == 0:
			sens = clk.Posedge()
		case k == 1:
			sens = clk.Negedge()
		case k == 2:
			sens = clk.Signal().Changed()
		case i > 0:
			sens = d.sigs[rng.Intn(i)].Changed()
		default:
			sens = clk.Posedge()
		}
		notify := rng.Intn(3) == 0
		delay := sim.Time(rng.Intn(4))
		ev := d.events[rng.Intn(len(d.events))]
		p := s.Method(fmt.Sprintf("m%d", i), func() {
			d.record(id)
			d.sigs[i].Write(d.sum(i) + id + 1)
			if notify {
				ev.NotifyDelay(delay)
			}
		}, sens)
		if rng.Intn(2) == 0 {
			p.DontInitialize()
		}
	}
	var threads []*Process
	for i, n := 0, rng.Intn(4); i < n; i++ {
		id, trng := proc, rand.New(rand.NewSource(seed*1000+int64(i)))
		proc++
		threads = append(threads, s.Thread(fmt.Sprintf("t%d", i), func(c *Ctx) {
			for step := 0; step < 60; step++ {
				d.record(id)
				sig := d.sigs[trng.Intn(len(d.sigs))]
				sig.Write(sig.Read() + id)
				d.drv[trng.Intn(2)].Drive(Logic(trng.Intn(4)))
				ev := d.notifyTarget(trng)
				switch trng.Intn(4) {
				case 0:
					ev.Notify()
				case 1:
					ev.NotifyDelay(sim.Time(trng.Intn(6)))
				case 2:
					ev.Cancel()
				}
				switch trng.Intn(4) {
				case 0:
					c.WaitTime(sim.Time(1 + trng.Intn(7)))
				case 1:
					if c.WaitTimeout(d.events[trng.Intn(len(d.events))], sim.Time(1+trng.Intn(9))) {
						d.record(id + 1000)
					}
				case 2:
					c.WaitCycles(d.clocks[trng.Intn(len(d.clocks))], uint64(1+trng.Intn(3)))
				case 3:
					evs := []*Event{d.events[trng.Intn(len(d.events))], d.clocks[trng.Intn(len(d.clocks))].Posedge()}
					if c.WaitAny(evs...) == evs[0] {
						d.record(id + 2000)
					}
				}
			}
		}))
	}
	defer func() {
		for _, p := range threads {
			p.coro.Kill()
		}
	}()
	var err error
	if seed%2 == 0 {
		err = s.RunCycles(d.clocks[0], uint64(20+rng.Intn(20)))
	} else {
		err = s.Run(sim.Time(40 + rng.Intn(60)))
	}
	if err != nil {
		return err
	}
	st := s.Stats()
	b := binary.LittleEndian.AppendUint64(nil, uint64(s.Now()))
	for _, v := range []uint64{st.Deltas, st.TimeSteps, st.ProcessRuns, st.SignalUpdates, st.EventTriggers} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, c := range d.clocks {
		b = binary.LittleEndian.AppendUint64(b, c.Cycles())
	}
	h.Write(b)
	return nil
}
