package experiments

import (
	"fmt"

	"repro/internal/board"
	"repro/internal/cosim/federation"
	"repro/internal/hdlsim"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// AblationIRQLatency (A6) characterizes the framework's core timing
// artifact directly: the latency from a hardware interrupt pulse to the
// board's deferred service routine, in clock cycles, as a function of
// T_sync. Cross-traffic moves at quantum boundaries, so the latency is
// quantized: at most ~2·T_sync, about 1.5·T_sync on average — the number
// that drives every accuracy effect in Figure 7.
func AblationIRQLatency(opt Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation A6: interrupt service latency vs Tsync (cycles, 20 IRQs each)",
		Header: []string{"Tsync", "min", "mean", "max", "max/Tsync"},
	}
	for _, ts := range []uint64{100, 500, 1000, 5000} {
		lat, err := measureIRQLatency(ts, 20)
		if err != nil {
			return nil, err
		}
		var minL, maxL, sum uint64
		for i, l := range lat {
			if i == 0 || l < minL {
				minL = l
			}
			if l > maxL {
				maxL = l
			}
			sum += l
		}
		mean := float64(sum) / float64(len(lat))
		opt.log("A6: Tsync=%d mean=%.0f max=%d", ts, mean, maxL)
		t.Append(ts, minL, fmt.Sprintf("%.0f", mean), maxL,
			fmt.Sprintf("%.2f", float64(maxL)/float64(ts)))
		if maxL > ts+ts/2 {
			return nil, fmt.Errorf("experiments: IRQ latency %d exceeds the Tsync bound at Tsync=%d", maxL, ts)
		}
	}
	t.Note("alternating mode: a pulse at cycle c of quantum k is serviced while the")
	t.Note("simulator waits at boundary k·Tsync, and the response is visible one cycle")
	t.Note("later — latency ∈ (0, Tsync], the mechanism behind Figure 7's knee at B·P")
	return t, nil
}

// measureIRQLatency raises count interrupts at cycles spaced far enough
// apart to avoid coalescing, and measures the full service loop as the
// hardware sees it: raise → board DSR → service thread → echo write back
// to the simulator, in HDL clock cycles. (The DSR alone is not a
// meaningful timestamp: the board's local clock lags the simulator by up
// to one quantum when the grant is delivered.)
func measureIRQLatency(tsync uint64, count int) ([]uint64, error) {
	const (
		irqLine     = 2
		stampReg    = 0x00 // HW posts the raise cycle here before the IRQ
		echoReg     = 0x10 // board echoes the stamp here when serviced
		cyclesPerTk = 100
	)
	s := hdlsim.NewSimulator("irq-lat")
	clk := s.NewClock("clk", sim.NS(10))
	dout := s.NewDriverOut("stamp", stampReg, 1)
	din := s.NewDriverIn("echo", echoReg, 1)

	var latencies []uint64
	s.DriverProcess("latency-meter", func() {
		for {
			w, ok := din.Pop()
			if !ok {
				return
			}
			latencies = append(latencies, clk.Cycles()-uint64(w.Val))
		}
	}, din)

	spacing := 3*tsync + 17 // > 2·Tsync: no coalescing; odd offset de-phases
	s.Thread("pulser", func(c *hdlsim.Ctx) {
		for i := 0; i < count; i++ {
			c.WaitCycles(clk, spacing)
			cyc := clk.Cycles()
			dout.Set(stampReg, uint32(cyc))
			dout.Post(stampReg, []uint32{uint32(cyc)})
			s.RaiseDriverInterrupt(irqLine)
		}
	})

	bcfg := board.DefaultConfig()
	bcfg.RTOS = rtos.Config{CyclesPerTick: cyclesPerTk, HWTicksPerSWTick: 1}
	bcfg.CyclesPerGrantTick = cyclesPerTk
	brd := board.New(bcfg)
	dev, err := brd.NewRemoteDev("/dev/stamp", stampReg, echoReg+1)
	if err != nil {
		return nil, err
	}
	sem := brd.K.NewSemaphore("irq", 0)
	brd.K.AttachInterrupt(irqLine, nil, func() { sem.Post() })
	brd.K.CreateThread("service", 5, func(c *rtos.ThreadCtx) {
		for {
			sem.Wait(c)
			stamp := dev.PeekShadow(stampReg)
			if _, err := dev.Write(c, echoReg, []uint32{stamp}); err != nil {
				panic(err)
			}
		}
	})

	defer brd.K.Shutdown() // a failed run finishes no party
	_, err = federation.DriverSimulate(s, clk, brd, federation.Schedule{
		TSync:       tsync,
		TotalCycles: spacing*uint64(count) + 6*tsync + 1000,
		StopEarly:   func() bool { return len(latencies) >= count },
	})
	if err != nil {
		return nil, err
	}
	if len(latencies) < count {
		return nil, fmt.Errorf("experiments: only %d of %d interrupts serviced", len(latencies), count)
	}
	return latencies[:count], nil
}
