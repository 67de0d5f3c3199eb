package router

import (
	"fmt"

	"repro/internal/board"
	"repro/internal/hdlsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// TBConfig parameterizes the full paper testbench.
type TBConfig struct {
	// Ports / FIFOCap configure the router (paper: 4 ports).
	Ports   int
	FIFOCap int
	// Engines is the number of checksum-offload engines/boards (default 1).
	Engines int
	// PacketsPerPort is each producer's quota; the experiment's N is
	// Ports × PacketsPerPort.
	PacketsPerPort int
	// Period is the per-producer packet period in clock cycles.
	Period uint64
	// DataWords is the payload size per packet.
	DataWords int
	// ErrRate is the fraction of deliberately corrupted packets.
	ErrRate float64
	// MulticastRate is the fraction of packets emitted as multicast (a
	// random non-empty port mask), exercising the Helix switch's multicast
	// path.
	MulticastRate float64
	// Seed makes the traffic deterministic.
	Seed int64
	// ClockPeriod is the HDL clock period.
	ClockPeriod sim.Time
}

// DefaultTBConfig matches the experiments: 4 ports, 4-packet FIFOs, one
// packet per port every 1250 cycles, 8 payload words, a 100 MHz clock.
// With these parameters the sustained FIFO occupancy 1.5·T_sync/Period
// crosses the capacity at T_sync ≈ 4·1250/1.5 ≈ 4200–5000 cycles, placing
// the accuracy knee where the paper's Figure 7 has it.
func DefaultTBConfig() TBConfig {
	return TBConfig{
		Ports:          4,
		FIFOCap:        4,
		PacketsPerPort: 25,
		Period:         1250,
		DataWords:      8,
		ErrRate:        0,
		Seed:           1,
		ClockPeriod:    sim.NS(10),
	}
}

// N returns the total packet count of the workload.
func (c TBConfig) N() int { return c.Ports * c.PacketsPerPort }

// WorkCycles returns the cycles needed to inject the whole workload.
func (c TBConfig) WorkCycles() uint64 {
	return uint64(c.PacketsPerPort)*c.Period + c.Period
}

// Testbench is the instantiated hardware side: simulator, clock, router,
// producers and consumers.
type Testbench struct {
	Sim       *hdlsim.Simulator
	Clk       *hdlsim.Clock
	Router    *Router
	Producers []*Producer
	Consumers []*Consumer
	cfg       TBConfig
}

// BuildTestbench constructs the HDL side of the paper's evaluation setup.
func BuildTestbench(cfg TBConfig) *Testbench {
	s := hdlsim.NewSimulator("router-tb")
	clk := s.NewClock("clk", cfg.ClockPeriod)
	r := New(s, clk, Config{Ports: cfg.Ports, FIFOCap: cfg.FIFOCap, Engines: cfg.Engines})
	tb := &Testbench{Sim: s, Clk: clk, Router: r, cfg: cfg}
	for i := 0; i < cfg.Ports; i++ {
		gen := packet.NewGenerator(cfg.Seed+int64(i), uint16(i), cfg.Ports, cfg.DataWords, cfg.ErrRate)
		gen.SetMulticastRate(cfg.MulticastRate)
		phase := uint64(i) * cfg.Period / uint64(cfg.Ports)
		tb.Producers = append(tb.Producers,
			NewProducer(s, clk, r.In[i], gen, cfg.PacketsPerPort, cfg.Period, phase))
		tb.Consumers = append(tb.Consumers,
			NewConsumer(s, r.Out[i], i, r.RouteOf))
	}
	return tb
}

// Cfg returns the testbench configuration.
func (tb *Testbench) Cfg() TBConfig { return tb.cfg }

// Generated returns the total packets emitted so far.
func (tb *Testbench) Generated() uint64 {
	var n uint64
	for _, p := range tb.Producers {
		n += p.Generated()
	}
	return n
}

// ProducersDone reports whether the full workload has been injected.
func (tb *Testbench) ProducersDone() bool {
	for _, p := range tb.Producers {
		if !p.Done() {
			return false
		}
	}
	return true
}

// Finished reports whether the workload is injected and fully drained.
func (tb *Testbench) Finished() bool {
	return tb.ProducersDone() && tb.Router.Quiescent()
}

// ConsumerTotals sums all consumers' counters.
func (tb *Testbench) ConsumerTotals() ConsumerStats {
	var t ConsumerStats
	for _, c := range tb.Consumers {
		s := c.Stats()
		t.Received += s.Received
		t.IntegrityError += s.IntegrityError
		t.Misrouted += s.Misrouted
	}
	return t
}

// CheckConservation verifies the packet-accounting invariant and returns
// an error describing any leak.
func (tb *Testbench) CheckConservation(boardOverruns, mboxDrops uint64) error {
	rs := tb.Router.Stats()
	gen := tb.Generated()
	accounted := rs.Forwarded + rs.DroppedFull + rs.DroppedChecksum +
		uint64(tb.Router.InFlight()) + uint64(tb.Router.outstandingCount())
	// Packets whose verdicts were lost to board-side overruns stay in
	// outstanding; they are counted there, so the identity must be exact.
	if gen != rs.Received {
		return fmt.Errorf("router: %d generated but %d received at inputs", gen, rs.Received)
	}
	// A packet both buffered and outstanding would be double-counted;
	// in-flight FIFO entries that are posted are exactly the outstanding
	// ones, so subtract the overlap.
	posted := uint64(0)
	for _, f := range tb.Router.fifos {
		for _, e := range f {
			if e.posted {
				posted++
			}
		}
	}
	if unposted := uint64(tb.Router.InFlight()) - posted; unposted != uint64(tb.Router.unposted) {
		return fmt.Errorf("router: %d buffered entries await posting but the router counts %d",
			unposted, tb.Router.unposted)
	}
	accounted -= posted
	if gen != accounted {
		return fmt.Errorf("router: conservation violated: generated %d, accounted %d (stats %+v, overruns %d, mboxDrops %d)",
			gen, accounted, rs, boardOverruns, mboxDrops)
	}
	return nil
}

// BoardSide bundles the board-side pieces of the testbench.
type BoardSide struct {
	Board *board.Board
	Dev   *board.RemoteDev
	App   *BoardApp
}

// BuildBoardSide constructs the virtual board with the remote router
// device window (for the engine named by acfg.Engine) and the checksum
// application installed.
func BuildBoardSide(bcfg board.Config, acfg AppConfig) (*BoardSide, error) {
	b := board.New(bcfg)
	dev, err := b.NewRemoteDev(fmt.Sprintf("/dev/router%d", acfg.Engine),
		EngineBase(acfg.Engine), WindowSize)
	if err != nil {
		return nil, err
	}
	app, err := InstallBoardApp(b, dev, acfg)
	if err != nil {
		return nil, err
	}
	return &BoardSide{Board: b, Dev: dev, App: app}, nil
}
