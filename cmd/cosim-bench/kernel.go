package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/cosim"
	"repro/internal/cosim/federation"
	"repro/internal/hdlsim"
	"repro/internal/iss"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// kernelBench is one compute-floor micro-benchmark: a fixed number of
// operations on a bare simulation kernel (or the wire codec), with no
// co-simulation around it.
// These are the per-cycle costs every end-to-end number is built on (the
// paper normalises its overheads against the HDL simulator and the board
// running free), so a regression here shows up before it is diluted by
// link and transport time.
type kernelBench struct {
	name string
	ops  int
	// run builds fresh state, times ops operations and returns the wall
	// time of the timed part only.
	run func(ops int) (time.Duration, error)
}

func kernelBenches() []kernelBench {
	return []kernelBench{
		// One idle 1000-cycle quantum: 10 timer ticks, an empty pick each.
		{"Kernel/rtos/AdvanceIdle", 100_000, func(ops int) (time.Duration, error) {
			k := rtos.NewKernel(rtos.DefaultConfig())
			start := time.Now()
			for i := 0; i < ops; i++ {
				k.Advance(1000)
			}
			return time.Since(start), nil
		}},
		// One posted IRQ serviced through ISR and DSR in a one-tick quantum.
		{"Kernel/rtos/InterruptDispatch", 300_000, func(ops int) (time.Duration, error) {
			k := rtos.NewKernel(rtos.DefaultConfig())
			served := 0
			k.AttachInterrupt(1, nil, func() { served++ })
			start := time.Now()
			for i := 0; i < ops; i++ {
				k.PostIRQ(1)
				k.Advance(100)
			}
			wall := time.Since(start)
			if served != ops {
				return 0, fmt.Errorf("served %d of %d interrupts", served, ops)
			}
			return wall, nil
		}},
		// One clock cycle (two edges) with no user processes.
		{"Kernel/hdlsim/ClockOnly", 500_000, func(ops int) (time.Duration, error) {
			return clockedKernel(ops, 0)
		}},
		// One clock cycle with four methods sensitive to the rising edge.
		{"Kernel/hdlsim/MethodFanout/methods=4", 500_000, func(ops int) (time.Duration, error) {
			return clockedKernel(ops, 4)
		}},
		// One clock cycle with four threads in staggered 1250-cycle counting
		// waits, the router testbench's producers at the paper's packet
		// period: almost every edge wakes none of them.
		{"Kernel/hdlsim/CountingWaits/threads=4", 500_000, func(ops int) (time.Duration, error) {
			return countingWaits(ops, 4)
		}},
		// One elided TSync=1 boundary of an adaptive two-party federation:
		// a clock-only kernel and a board promising unbounded lookahead,
		// so the whole run is one quiet stretch and one final grant.
		{"Kernel/federation/ElidedBoundary", 500_000, func(ops int) (time.Duration, error) {
			return elidedBoundaries(ops)
		}},
		// One Schedule+Pop on a 16-deep timed queue: each popped event is
		// rescheduled a few instants ahead, like clocks of mixed periods.
		{"Kernel/sim/QueueSchedulePop", 1_000_000, func(ops int) (time.Duration, error) {
			q := sim.NewQueue()
			fn := sim.EventFunc(func() {})
			for i := 0; i < 16; i++ {
				q.Schedule(sim.Time(i), fn)
			}
			start := time.Now()
			for i := 0; i < ops; i++ {
				at, _, _ := q.Pop()
				q.Schedule(at+sim.Time(1+i%7), fn)
			}
			return time.Since(start), nil
		}},
		// One 19-word DATA write encoded into a buffer and decoded back.
		{"Kernel/cosim/EncodeDecodeDataWrite", 100_000, func(ops int) (time.Duration, error) {
			m := cosim.Msg{Type: cosim.MTDataWrite, Addr: 0x40, Words: make([]uint32, 19)}
			var buf bytes.Buffer
			start := time.Now()
			for i := 0; i < ops; i++ {
				buf.Reset()
				if err := m.Encode(&buf); err != nil {
					return 0, err
				}
				if _, err := cosim.Decode(&buf); err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		}},
		// One run of the ISS checksum program over 64 words.
		{"Kernel/iss/ChecksumKernel64Words", 10_000, func(ops int) (time.Duration, error) {
			words := make([]uint16, 64)
			for i := range words {
				words[i] = uint16(i * 257)
			}
			start := time.Now()
			for i := 0; i < ops; i++ {
				if _, _, err := iss.RunChecksum(words); err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		}},
	}
}

// clockedKernel times ops cycles of a 10 ns clock whose rising edge
// triggers the given number of sensitive methods.
func clockedKernel(ops, methods int) (time.Duration, error) {
	s := hdlsim.NewSimulator("bench")
	clk := s.NewClock("clk", sim.NS(10))
	ctr := 0
	for i := 0; i < methods; i++ {
		s.Method(fmt.Sprintf("m%d", i), func() { ctr++ }, clk.Posedge()).DontInitialize()
	}
	if err := s.Elaborate(); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := s.RunCycles(clk, uint64(ops)); err != nil {
		return 0, err
	}
	wall := time.Since(start)
	if ctr != ops*methods {
		return 0, fmt.Errorf("%d method activations over %d cycles, want %d", ctr, ops, ops*methods)
	}
	return wall, nil
}

// countingWaits times ops cycles of a 10 ns clock with the given number
// of threads each waking every 1250 cycles, their phases spread evenly.
func countingWaits(ops, threads int) (time.Duration, error) {
	const period = 1250
	s := hdlsim.NewSimulator("bench")
	defer s.Shutdown()
	clk := s.NewClock("clk", sim.NS(10))
	wakes := 0
	for i := 0; i < threads; i++ {
		phase := uint64(1 + i*period/threads)
		s.Thread(fmt.Sprintf("t%d", i), func(c *hdlsim.Ctx) {
			c.WaitCycles(clk, phase)
			for {
				c.WaitCycles(clk, period)
				wakes++
			}
		})
	}
	if err := s.Elaborate(); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := s.RunCycles(clk, uint64(ops)); err != nil {
		return 0, err
	}
	wall := time.Since(start)
	if want := threads * (ops/period - 1); wakes < want {
		return 0, fmt.Errorf("%d counting-wait wakes over %d cycles, want at least %d", wakes, ops, want)
	}
	return wall, nil
}

// elidedBoundaries times an adaptive federation of a clock-only kernel
// and an idle board over ops TSync=1 boundaries, all of them elided.
func elidedBoundaries(ops int) (time.Duration, error) {
	s := hdlsim.NewSimulator("bench")
	clk := s.NewClock("clk", sim.NS(10))
	dev, err := cosim.NewSimFederate(s, clk)
	if err != nil {
		return 0, err
	}
	tm, err := federation.New(federation.Config{
		Parties: []federation.Party{{Name: "hw", Fed: dev, Eager: true}, {Name: "board", Fed: idleBoard{}}},
		Links:   []federation.Link{{From: 0, To: 1, Size: 0x10}},
		Schedule: federation.Schedule{TSync: 1, TotalCycles: uint64(ops), Adaptive: true,
			StopEarly: func() bool { return false }},
	})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	st, err := tm.Run(context.Background())
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	if st.Elided != uint64(ops) || st.Syncs != 1 {
		return 0, fmt.Errorf("%d elided / %d syncs over %d boundaries, want %d / 1", st.Elided, st.Syncs, ops, ops)
	}
	return wall, nil
}

// idleBoard is a granted party with nothing scheduled: it promises
// unbounded lookahead and never emits.
type idleBoard struct{}

func (idleBoard) Step(until cosim.SimTime) (cosim.SimTime, error) { return until, nil }
func (idleBoard) Exchange(in []hdlsim.DataMsg) ([]hdlsim.DataMsg, error) {
	return nil, nil
}
func (idleBoard) Lookahead() uint64             { return cosim.UnboundedLookahead }
func (idleBoard) Done() bool                    { return false }
func (idleBoard) Finish(at cosim.SimTime) error { return nil }

// measureKernel runs one kernel benchmark several times and keeps the
// fastest, reporting ns per operation.
func measureKernel(kb kernelBench, runs int) (Result, error) {
	r := Result{Name: kb.name, Runs: runs}
	var best time.Duration
	for i := 0; i < runs; i++ {
		wall, err := kb.run(kb.ops)
		if err != nil {
			return r, err
		}
		if best == 0 || wall < best {
			best = wall
		}
	}
	r.NsPerOp = best.Nanoseconds() / int64(kb.ops)
	return r, nil
}
