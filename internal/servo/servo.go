// Package servo is the second co-simulation scenario: closed-loop motion
// control, the factory-automation workload the paper's introduction is
// about (the industrial partner built servo drives). The hardware
// simulator models a DC-motor axis with a position sensor that samples at
// a fixed rate; the board runs a PI position controller as application
// software behind the remote device driver. The synchronization interval
// inserts real delay into the control loop, so control quality (tracking
// error, overshoot) degrades as T_sync grows — the control-engineering
// face of the paper's Figure 7 trade-off, and exactly the "verify the
// expected performance on the models" use case of section 1.
package servo

import (
	"fmt"
	"time"

	"repro/internal/board"
	"repro/internal/cosim/federation"
	"repro/internal/hdlsim"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// Device register map (word offsets; the window starts at 0).
const (
	RegPosition = 0x00 // sensor sample, milli-units, two's complement
	RegSample   = 0x01 // sample sequence number
	RegCommand  = 0x10 // board→plant: drive command, milli-units
	WindowWords = 0x11
	IRQSample   = 3
)

// PlantConfig parameterizes the simulated axis.
type PlantConfig struct {
	// StepCycles is the integration step of the plant model in clock
	// cycles.
	StepCycles uint64
	// SampleCycles is the sensor sampling period in clock cycles.
	SampleCycles uint64
	// Inertia and Friction set the axis dynamics (per integration step).
	Inertia  float64
	Friction float64
	// MaxDrive clamps the command magnitude (actuator saturation).
	MaxDrive float64
}

// DefaultPlantConfig returns an axis whose velocity loop is first-order
// (strong viscous friction, as in a geared servo axis), so a PI position
// loop is stable at small control delay and loses its margin as the
// delay approaches the plant's time constant.
func DefaultPlantConfig() PlantConfig {
	return PlantConfig{
		StepCycles:   50,
		SampleCycles: 500,
		Inertia:      10,
		Friction:     2.0,
		MaxDrive:     4000,
	}
}

// Plant is the HDL-side axis model: a discrete-time DC motor with a
// sampling position sensor publishing through driver ports.
type Plant struct {
	hdlsim.BaseModule
	cfg PlantConfig

	pos, vel float64
	drive    float64

	din  *hdlsim.DriverIn
	dout *hdlsim.DriverOut
	sim  *hdlsim.Simulator

	samples uint32
}

// NewPlant instantiates the axis on the simulator.
func NewPlant(s *hdlsim.Simulator, clk *hdlsim.Clock, cfg PlantConfig) *Plant {
	p := &Plant{BaseModule: hdlsim.BaseModule{Name: "axis"}, cfg: cfg, sim: s}
	p.din = s.NewDriverIn("axis.cmd", RegCommand, 1)
	p.dout = s.NewDriverOut("axis.sense", RegPosition, 2)
	s.DriverProcess("axis.driver", p.onCommand, p.din)
	s.Thread("axis.dynamics", p.dynamics)
	s.Thread("axis.sensor", func(c *hdlsim.Ctx) {
		for {
			c.WaitCycles(clk, cfg.SampleCycles)
			p.publishSample()
		}
	})
	_ = clk
	return p
}

// Position returns the current (continuous) axis position.
func (p *Plant) Position() float64 { return p.pos }

func (p *Plant) onCommand() {
	for {
		w, ok := p.din.Pop()
		if !ok {
			return
		}
		u := float64(int32(w.Val))
		if u > p.cfg.MaxDrive {
			u = p.cfg.MaxDrive
		}
		if u < -p.cfg.MaxDrive {
			u = -p.cfg.MaxDrive
		}
		p.drive = u
	}
}

func (p *Plant) dynamics(c *hdlsim.Ctx) {
	for {
		c.WaitTime(sim.Time(p.cfg.StepCycles) * sim.NS(10))
		acc := (p.drive - p.cfg.Friction*p.vel) / p.cfg.Inertia
		p.vel += acc
		p.pos += p.vel
	}
}

func (p *Plant) publishSample() {
	p.samples++
	val := uint32(int32(p.pos))
	p.dout.Set(RegPosition, val)
	p.dout.Set(RegSample, p.samples)
	p.dout.Post(RegPosition, []uint32{val, p.samples})
	p.sim.RaiseDriverInterrupt(IRQSample)
}

// ControllerConfig parameterizes the board-side PI controller.
type ControllerConfig struct {
	Kp, Ki float64
	// Setpoint is the commanded position (milli-units).
	Setpoint float64
	// UpdateCost is the CPU cycles charged per control update.
	UpdateCost uint64
	// Priority of the control thread.
	Priority int
}

// DefaultControllerConfig returns gains tuned for the default plant with
// a tight loop (small T_sync): ~0.5× error decay per control period.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{Kp: 0.1, Ki: 0.002, Setpoint: 1000, UpdateCost: 400, Priority: 6}
}

// Controller is the application software: sampled-position PI control
// through the remote device driver.
type Controller struct {
	cfg     ControllerConfig
	dev     *board.RemoteDev
	integ   float64
	updates uint64
}

// InstallController wires the controller onto a board.
func InstallController(b *board.Board, dev *board.RemoteDev, cfg ControllerConfig) *Controller {
	ctl := &Controller{cfg: cfg, dev: dev}
	sem := b.K.NewSemaphore("servo.sample", 0)
	b.K.AttachInterrupt(IRQSample, nil, func() { sem.Post() })
	b.K.CreateThread("pi-controller", cfg.Priority, func(c *rtos.ThreadCtx) {
		for {
			sem.Wait(c)
			pos := float64(int32(ctl.dev.PeekShadow(RegPosition)))
			err := cfg.Setpoint - pos
			ctl.integ += err
			u := cfg.Kp*err + cfg.Ki*ctl.integ
			c.Charge(cfg.UpdateCost)
			if _, werr := ctl.dev.Write(c, RegCommand, []uint32{uint32(int32(u))}); werr != nil {
				panic(fmt.Sprintf("servo: command write: %v", werr))
			}
			ctl.updates++
		}
	})
	return ctl
}

// Updates returns the number of control updates executed.
func (ctl *Controller) Updates() uint64 { return ctl.updates }

// Quality summarizes one closed-loop run.
type Quality struct {
	IAE        float64 // integral of |setpoint − position| over samples
	Overshoot  float64 // max position beyond the setpoint, fraction
	FinalError float64 // |setpoint − position| at the end
	Settled    bool    // within 5% of setpoint for the final quarter
	Updates    uint64
	Wall       time.Duration
}

// String implements fmt.Stringer.
func (q Quality) String() string {
	return fmt.Sprintf("IAE=%.0f overshoot=%.1f%% final=%.0f settled=%v",
		q.IAE, 100*q.Overshoot, q.FinalError, q.Settled)
}

// RunConfig configures one closed-loop co-simulation.
type RunConfig struct {
	Plant       PlantConfig
	Control     ControllerConfig
	TSync       uint64
	TotalCycles uint64
	BoardCfg    board.Config
}

// DefaultRunConfig returns the experiment defaults.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Plant:       DefaultPlantConfig(),
		Control:     DefaultControllerConfig(),
		TSync:       250,
		TotalCycles: 120_000,
		BoardCfg:    board.DefaultConfig(),
	}
}

// Run executes the closed loop and scores it. The position is sampled for
// scoring at every sensor sample on the HDL side, so the metric is
// independent of the board's view.
func Run(rc RunConfig) (Quality, error) {
	q, _, err := RunWithTrace(rc)
	return q, err
}

// RunWithTrace is Run, additionally returning the position trace at
// sensor-sample granularity (for plotting step responses).
func RunWithTrace(rc RunConfig) (Quality, []float64, error) {
	var q Quality
	s := hdlsim.NewSimulator("servo")
	clk := s.NewClock("clk", sim.NS(10))
	plant := NewPlant(s, clk, rc.Plant)

	// Score at sample granularity.
	var trace []float64
	s.Method("score", func() {
		trace = append(trace, plant.Position())
	}, clk.Posedge()).DontInitialize()

	brd := board.New(rc.BoardCfg)
	dev, err := brd.NewRemoteDev("/dev/axis", RegPosition, WindowWords)
	if err != nil {
		return q, nil, err
	}
	ctl := InstallController(brd, dev, rc.Control)

	defer brd.K.Shutdown() // a failed run finishes no party
	start := time.Now()
	_, err = federation.DriverSimulate(s, clk, brd, federation.Schedule{
		TSync:       rc.TSync,
		TotalCycles: rc.TotalCycles,
	})
	q.Wall = time.Since(start)
	if err != nil {
		return q, nil, err
	}

	set := rc.Control.Setpoint
	// Subsample the cycle-granular trace at the sensor period for scoring.
	step := int(rc.Plant.SampleCycles)
	var maxPos float64
	settledFrom := len(trace) * 3 / 4
	settled := true
	for i := 0; i < len(trace); i += step {
		v := trace[i]
		q.IAE += abs(set-v) / float64(len(trace)/step)
		if v > maxPos {
			maxPos = v
		}
		if i >= settledFrom && abs(set-v) > 0.05*set {
			settled = false
		}
	}
	if len(trace) > 0 {
		q.FinalError = abs(set - trace[len(trace)-1])
	}
	if maxPos > set {
		q.Overshoot = (maxPos - set) / set
	}
	q.Settled = settled
	q.Updates = ctl.Updates()
	// Subsampled trace for callers that plot.
	sampled := make([]float64, 0, len(trace)/step+1)
	for i := 0; i < len(trace); i += step {
		sampled = append(sampled, trace[i])
	}
	return q, sampled, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
