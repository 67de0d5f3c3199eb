package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/board"
	"repro/internal/cosim"
	"repro/internal/cosim/federation"
	"repro/internal/hdlsim"
	"repro/internal/obs"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// Pulse-device register map: auxiliary HDL kernels beyond the router
// testbench occupy windows far above the engine strides, one per device,
// each with a heartbeat counter register pair and a private interrupt
// line.
const (
	PulseBase0  = 0x8000
	PulseStride = 0x10
	PulseIRQ0   = 16
)

// PulseBase returns the window base of auxiliary pulse device p.
func PulseBase(p int) uint32 { return PulseBase0 + uint32(p)*PulseStride }

// PulseIRQ returns the interrupt line of auxiliary pulse device p.
func PulseIRQ(p int) uint8 { return uint8(PulseIRQ0 + p) }

// FederationConfig describes an N-party topology for the router
// testbench: one router HDL kernel serving Boards virtual boards (one
// checksum engine each), plus optional auxiliary pulse-device kernels —
// all coordinated by the hierarchical time manager
// (internal/cosim/federation). A run without one is FederationConfig{Boards: 1}.
// The JSON tags are its farm.SessionSpec form.
type FederationConfig struct {
	// Boards is the number of board parties; board i serves checksum
	// engine i through its own link. Must be ≥ 1.
	Boards int `json:"boards"`
	// InProcBoards hosts the boards in-process, each *board.Board itself
	// the party (no goroutines, no wire). When false each board runs
	// behind a cosim.HWEndpoint speaking the v4 wire protocol over the
	// RunConfig's TransportKind.
	InProcBoards bool `json:"inproc_boards,omitempty"`
	// PulseDevices adds that many auxiliary HDL kernels, each
	// periodically posting a heartbeat counter into a private window on
	// board 0 and raising its interrupt line — the "several HDL kernels
	// on one virtual clock" topology.
	PulseDevices int `json:"pulse_devices,omitempty"`
	// PulsePeriod is the heartbeat period in clock cycles (0 means
	// 4×TSync).
	PulsePeriod uint64 `json:"pulse_period,omitempty"`
}

// ErrIRQRange rejects a topology whose engine or pulse-device interrupt
// lines do not fit the board's rtos.NumIRQs-line interrupt vector.
var ErrIRQRange = errors.New("router: invalid FederationConfig: interrupt line out of the board's vector")

// Validate rejects incoherent federation topologies.
func (fc FederationConfig) Validate() error {
	if fc.Boards < 1 {
		return fmt.Errorf("router: invalid FederationConfig: %d boards — a federation needs at least one board party", fc.Boards)
	}
	if fc.PulseDevices < 0 {
		return fmt.Errorf("router: invalid FederationConfig: negative PulseDevices")
	}
	// Engine e raises IRQPacket+e and pulse device p raises PulseIRQ0+p;
	// checked in int because EngineIRQ/PulseIRQ wrap at 256. The engine
	// bound also keeps the engine windows (the last ends at
	// EngineBase(27) = 0x6C00) below the pulse windows at PulseBase0.
	if last := IRQPacket + fc.Boards - 1; last >= rtos.NumIRQs {
		return fmt.Errorf("%w: %d boards need engine IRQ %d, the vector has %d lines (at most %d boards)",
			ErrIRQRange, fc.Boards, last, rtos.NumIRQs, rtos.NumIRQs-IRQPacket)
	}
	if last := PulseIRQ0 + fc.PulseDevices - 1; last >= rtos.NumIRQs {
		return fmt.Errorf("%w: %d pulse devices need IRQ %d, the vector has %d lines (at most %d devices)",
			ErrIRQRange, fc.PulseDevices, last, rtos.NumIRQs, rtos.NumIRQs-PulseIRQ0)
	}
	return nil
}

// FederationResult is the run's RunResult (board 0's view) plus the
// per-board statistics, the federation schedule and the auxiliary pulse
// devices' delivery counters.
type FederationResult struct {
	RunResult
	// Apps and BoardCycles hold each board's application statistics and
	// board clock, indexed by board.
	Apps        []AppStats
	BoardCycles []uint64
	// Fed is the time manager's schedule accounting.
	Fed federation.Stats
	// PulseSent/PulseSeen count, per pulse device, heartbeats emitted by
	// the device kernel and observed by board 0's DSR. Equal counts show
	// the routed exchange delivered every event.
	PulseSent []uint64
	PulseSeen []uint64
}

// pulseDevice is an auxiliary HDL kernel: every period cycles it posts
// an incrementing heartbeat counter into its board window and raises its
// IRQ.
type pulseDevice struct {
	sim   *hdlsim.Simulator
	clk   *hdlsim.Clock
	count uint64
	next  uint64
	cycle uint64
}

func newPulseDevice(p int, period uint64, clockPeriod sim.Time) *pulseDevice {
	s := hdlsim.NewSimulator(fmt.Sprintf("pulse%d", p))
	d := &pulseDevice{sim: s, clk: s.NewClock("clk", clockPeriod), next: period}
	out := s.NewDriverOut("beat", PulseBase(p), 2)
	s.Method("pulse.main", func() {
		d.cycle++
		if d.cycle >= d.next {
			d.next += period
			d.count++
			out.Set(PulseBase(p), uint32(d.count))
			out.Set(PulseBase(p)+1, uint32(d.count>>32))
			out.Post(PulseBase(p), []uint32{uint32(d.count), uint32(d.count >> 32)})
			s.RaiseDriverInterrupt(PulseIRQ(p))
		}
	}, d.clk.Posedge()).DontInitialize()
	return d
}

// run executes one co-simulation under the federation time manager; it
// is the engine behind Run and RunFederation. The router kernel (and any
// pulse kernels) become eager cosim.SimFederate parties; each board
// becomes a granted party — in-process (the *board.Board) or behind its
// own transport stack (cosim.HWEndpoint) — and the manager owns the
// quantum clock. A nil rc.Federation is the one-wire-board topology,
// whose link may be the caller's tr. Cancelling ctx tears the wire
// stacks down and stops the manager at its next rendezvous; the
// context's cause becomes the returned error. A failed run shuts down
// the kernels it built, so no thread goroutine outlives it, and a run
// that failed because a wire board did returns that board's error.
func run(ctx context.Context, rc RunConfig, tr Transports) (res FederationResult, err error) {
	fc := FederationConfig{Boards: 1}
	if rc.Federation != nil {
		fc = *rc.Federation
	}
	res = FederationResult{RunResult: RunResult{TSync: rc.TSync, TransportKind: rc.Transport, Mode: rc.Mode}}
	if fc.InProcBoards {
		res.TransportKind = TransportInProc
	}
	if err := validateRun(rc, fc, tr); err != nil {
		closeBoth(tr)
		return res, err
	}
	bases, err := openLinks(rc.Transport, fc, tr)
	if err != nil {
		return res, err
	}
	if len(bases) > 0 {
		if k, ok := baseTransportKind(bases[0].HW); ok {
			// Report the transport actually carrying frames: a caller's
			// link (a farm mux, a test's in-process pair) may differ
			// from rc.Transport.
			res.TransportKind = k
		}
	}
	if fc.PulsePeriod == 0 {
		fc.PulsePeriod = 4 * rc.TSync
	}
	if rc.Obs != nil {
		// Handles are resolved once up front; a run starts and finishes
		// exactly once, so none of these belong on a struct.
		started := rc.Obs.Counter("router_runs_started_total")
		started.Inc()
		active := rc.Obs.Gauge("router_active_runs")
		active.Add(1)
		failed := rc.Obs.Counter("router_runs_failed_total")
		completed := rc.Obs.Counter("router_runs_completed_total")
		lastAccuracy := rc.Obs.Gauge("router_last_accuracy_pct")
		lastWall := rc.Obs.Gauge("router_last_wall_seconds")
		lastGenerated := rc.Obs.Gauge("router_last_generated_packets")
		lastSyncEvents := rc.Obs.Gauge("router_last_sync_events")
		lastTSync := rc.Obs.Gauge("router_last_tsync")
		syncs := func(r federation.SyncReason) *obs.Counter {
			return rc.Obs.Counter(obs.Name("cosim_boundary_sync_total", "reason", r.String()))
		}
		// The array type makes a reason without a handle a compile error.
		var syncsBy [federation.NumSyncReasons]*obs.Counter = [...]*obs.Counter{
			syncs(federation.SyncTraffic), syncs(federation.SyncCap), syncs(federation.SyncPeer),
			syncs(federation.SyncStopping), syncs(federation.SyncPlain), syncs(federation.SyncFinal),
		}
		defer func() {
			for r, n := range res.Fed.SyncsBy {
				syncsBy[r].Add(n)
			}
			active.Add(-1)
			if err != nil {
				failed.Inc()
				return
			}
			completed.Inc()
			lastAccuracy.Set(100 * res.Accuracy)
			lastWall.Set(res.Wall.Seconds())
			lastGenerated.Set(float64(res.Generated))
			lastSyncEvents.Set(float64(res.HW.SyncEvents))
			lastTSync.Set(float64(res.TSync))
		}()
	}

	rc.TB.Engines = fc.Boards
	tb := BuildTestbench(rc.TB)
	var pulses []*pulseDevice
	var sides []*BoardSide

	// Wire boards each get their base pair's decorator stack and a
	// goroutine; stacking hands the pair to closers, so bases[wired:]
	// are the pairs nothing owns yet. A run that fails finishes no
	// party, so abort also shuts down every kernel built so far, once
	// the wire boards' own loops have returned.
	var closers []func() error
	wires := make([]boardLink, fc.Boards) // wire board i's link and what Serve returned
	var boardLoops sync.WaitGroup
	wired := 0
	closeAll := func() {
		for _, c := range closers {
			c()
		}
	}
	abort := func() {
		closeAll()
		for _, b := range bases[wired:] {
			closeBoth(b)
		}
		boardLoops.Wait()
		tb.Sim.Shutdown()
		for _, pd := range pulses {
			pd.sim.Shutdown()
		}
		for _, bs := range sides {
			bs.Board.K.Shutdown()
		}
	}

	hwFed, err := cosim.NewSimFederate(tb.Sim, tb.Clk)
	if err != nil {
		abort()
		return res, err
	}

	parties := []federation.Party{{Name: "hw", Fed: hwFed, Eager: true}}
	var links []federation.Link

	// Auxiliary pulse kernels: eager parties writing into board 0.
	for p := 0; p < fc.PulseDevices; p++ {
		pd := newPulseDevice(p, fc.PulsePeriod, rc.TB.ClockPeriod)
		pf, perr := cosim.NewSimFederate(pd.sim, pd.clk)
		if perr != nil {
			abort()
			return res, perr
		}
		pulses = append(pulses, pd)
		parties = append(parties, federation.Party{Name: fmt.Sprintf("pulse%d", p), Fed: pf, Eager: true})
	}

	// Board parties, one per checksum engine; in-process boards run on
	// the manager's goroutine.
	var ep0 *cosim.HWEndpoint // board 0's wire endpoint and hw-side stack
	var hwTop cosim.Transport
	stack := rc.stack()
	pulseSeen := make([]uint64, fc.PulseDevices)
	for i := 0; i < fc.Boards; i++ {
		acfg := rc.AppCfg
		acfg.Engine = i
		bs, berr := BuildBoardSide(rc.BoardCfg, acfg)
		if berr != nil {
			abort()
			return res, berr
		}
		if i == 0 {
			// Register the pulse windows and their counting DSRs.
			for p := 0; p < fc.PulseDevices; p++ {
				pdev, derr := bs.Board.NewRemoteDev(fmt.Sprintf("/dev/pulse%d", p), PulseBase(p), PulseStride)
				if derr != nil {
					abort()
					return res, derr
				}
				p := p
				bs.Board.K.AttachInterrupt(int(PulseIRQ(p)), nil, func() {
					if pdev.PeekShadow(0) != 0 {
						pulseSeen[p]++
					}
				})
			}
		}
		sides = append(sides, bs)
		partyIdx := len(parties)
		name := fmt.Sprintf("board%d", i)
		if fc.InProcBoards {
			parties = append(parties, federation.Party{Name: name, Fed: bs.Board})
		} else {
			hwT, hwClose := cosim.BuildStack(bases[i].HW, stack)
			boardT, boardClose := cosim.BuildStack(bases[i].Board, stack.Peer())
			closers = append(closers, hwClose, boardClose)
			ep := cosim.NewHWEndpoint(hwT, rc.Mode)
			if i == 0 {
				ep0, hwTop = ep, hwT
			}
			wire := &wires[i]
			wire.Transport = boardT
			// One board keeps the classic side="hw"/"board" series;
			// several label each link by its federate name.
			hwSide, side := "hw", "board"
			if fc.Boards > 1 {
				hwSide, side = name, name+":board"
			}
			if rc.Obs != nil {
				ep.ObserveAs(rc.Obs, hwSide)
			}
			parties = append(parties, federation.Party{Name: name, Fed: ep})
			boardLoops.Add(1)
			go func(b *board.Board) {
				defer boardLoops.Done()
				wire.err = cosim.Serve(wire, b, rc.Obs, side)
			}(bs.Board)
			wired++
		}
		links = append(links,
			federation.Link{From: 0, To: partyIdx, Base: EngineBase(i), Size: EngineStride, IRQs: []uint8{EngineIRQ(i)}},
			federation.Link{From: partyIdx, To: 0, Base: EngineBase(i), Size: EngineStride})
		if i == 0 {
			for p := 0; p < fc.PulseDevices; p++ {
				links = append(links, federation.Link{
					From: 1 + p, To: partyIdx,
					Base: PulseBase(p), Size: PulseStride,
					IRQs: []uint8{PulseIRQ(p)},
				})
			}
		}
	}

	mgr, err := federation.New(federation.Config{
		Parties: parties,
		Links:   links,
		Schedule: federation.Schedule{
			TSync:       rc.TSync,
			TotalCycles: rc.Budget(),
			Adaptive:    rc.Adaptive,
			MaxQuantum:  rc.MaxQuantum,
			StopEarly:   tb.Finished,
		},
	})
	if err != nil {
		abort()
		return res, err
	}

	// Context cancellation tears the wire stacks down, unblocking any
	// board waiting on its link; the cause is reported as the run error.
	if ctx == nil {
		ctx = context.Background()
	}
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			closeAll()
		case <-watchDone:
		}
	}()
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = fmt.Errorf("router: run canceled: %w", context.Cause(ctx))
		}
	}()

	start := time.Now()
	fedStats, err := mgr.Run(ctx)
	res.Wall = time.Since(start)
	res.Fed = fedStats
	if err != nil {
		// Read which boards failed on their own before abort closes
		// every link and fails the rest.
		failed := -1
		for i := range wires {
			if wires[i].failed.Load() {
				failed = i
				break
			}
		}
		abort()
		if failed >= 0 {
			return res, fmt.Errorf("router: party \"board%d\": %w", failed, wires[failed].err)
		}
		return res, fmt.Errorf("router: federation: %w", err)
	}
	// Every board has sent its finish ack, but its Send may still be
	// pushing an injected duplicate or a delayed copy: let each Serve
	// return before the links close under it.
	boardLoops.Wait()
	closeAll()
	for i := range wires {
		if err := wires[i].err; err != nil {
			return res, fmt.Errorf("router: party \"board%d\": %w", i, err)
		}
	}

	res.HW = hwFed.Stats()
	res.HW.SyncEvents, res.HW.SyncsElided, res.HW.LastBoardCy = fedStats.Syncs, fedStats.Elided, fedStats.LastBoardCy
	res.Router = tb.Router.Stats()
	res.Consumers = tb.ConsumerTotals()
	res.Generated = tb.Generated()
	res.SimCycles = res.HW.Cycles
	var overruns, mboxDrops uint64
	for i, bs := range sides {
		st := bs.App.Stats()
		res.Apps = append(res.Apps, st)
		overruns += st.Overruns
		mboxDrops += st.MboxDrops
		cy, sw := bs.Board.BoardTime()
		res.BoardCycles = append(res.BoardCycles, cy)
		if i == 0 {
			res.RunResult.BoardCycles, res.BoardSWTicks = cy, sw
			res.App = st
			res.Board = bs.Board.Stats()
		}
	}
	if ep0 != nil {
		res.Link = *ep0.Metrics()
		res.Batch = cosim.BatchStatsOf(hwTop)
	}
	for _, pd := range pulses {
		res.PulseSent = append(res.PulseSent, pd.count)
	}
	res.PulseSeen = pulseSeen
	if res.Generated > 0 {
		res.Accuracy = float64(res.Router.Forwarded) / float64(res.Generated)
	}
	res.Conservation = tb.CheckConservation(overruns, mboxDrops)
	return res, nil
}

// boardLink is a wire board's end of its link. cosim.Serve closes it
// when the board fails, before the simulator sees the link go down, so a
// run that fails next can tell the board's own failure from the closed
// link it caused.
type boardLink struct {
	cosim.Transport
	failed atomic.Bool
	err    error // what Serve returned
}

// Close implements cosim.Transport, marking the board failed.
func (l *boardLink) Close() error {
	l.failed.Store(true)
	return l.Transport.Close()
}

// Unwrap implements cosim.Unwrapper.
func (l *boardLink) Unwrap() cosim.Transport { return l.Transport }

// validateRun rejects an incoherent run before anything is built.
// rc.Validate checks the topology; fc, rc.Federation or its one-board
// default, decides whether caller Transports fit.
func validateRun(rc RunConfig, fc FederationConfig, tr Transports) error {
	if (tr.HW == nil) != (tr.Board == nil) {
		return errHalfTransports
	}
	if err := rc.Validate(); err != nil {
		return err
	}
	if tr.HW != nil && (fc.Boards != 1 || fc.InProcBoards) {
		return fmt.Errorf("router: caller-provided Transports fit exactly one wire board link; this federation has %d (InProcBoards=%v)", fc.Boards, fc.InProcBoards)
	}
	return nil
}

// openLinks opens the base transport pair of every wire board before
// anything is built, so a link failure costs nothing: board 0 uses the
// caller's tr when given, the others self-dial per kind. It returns nil
// for in-process boards and closes every pair it opened on failure.
func openLinks(kind TransportKind, fc FederationConfig, tr Transports) ([]Transports, error) {
	if fc.InProcBoards {
		return nil, nil
	}
	bases := make([]Transports, fc.Boards)
	bases[0] = tr
	for i := range bases {
		if bases[i].HW != nil {
			continue
		}
		var err error
		if bases[i].HW, bases[i].Board, err = dialPair(kind); err != nil {
			for _, b := range bases {
				closeBoth(b)
			}
			return nil, err
		}
	}
	return bases, nil
}

// RunFederation is Run with the topology fc, returning the extended
// FederationResult. Options are applied to DefaultRunConfig as in Run,
// then fc replaces RunConfig.Federation; every link is self-dialed per
// the configured TransportKind.
func RunFederation(ctx context.Context, fc FederationConfig, opts ...Option) (FederationResult, error) {
	rc := DefaultRunConfig()
	for _, o := range opts {
		o(&rc)
	}
	rc.Federation = &fc
	return run(ctx, rc, Transports{})
}
