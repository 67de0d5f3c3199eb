package router

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/board"
	"repro/internal/cosim"
	"repro/internal/hdlsim"
	"repro/internal/obs"
)

// errHalfTransports rejects a Transports value with exactly one side set.
var errHalfTransports = errors.New("router: Transports must set both HW and Board (or neither, for a self-dialed link)")

// TransportKind selects how the two sides of a co-simulation run talk.
type TransportKind int

const (
	// TransportInProc uses in-process channels (fast, deterministic
	// wall-clock; identical simulated-time results to TCP).
	TransportInProc TransportKind = iota
	// TransportTCP uses real sockets over loopback, as in the paper's
	// host↔board setup.
	TransportTCP
	// TransportUDS uses a Unix-domain socket with the same framing and
	// handshake as TCP: cross-process on one host without the TCP/IP
	// stack. Unsupported on platforms without unix sockets.
	TransportUDS
	// TransportShm uses a lock-free shared-memory ring pair over an
	// mmap'd file (see cosim.ShmTransport): the zero-copy local path.
	// Unsupported where mmap is unavailable (probe cosim.ShmSupported).
	TransportShm
)

// String implements fmt.Stringer.
func (t TransportKind) String() string {
	switch t {
	case TransportTCP:
		return "tcp"
	case TransportUDS:
		return "uds"
	case TransportShm:
		return "shm"
	default:
		return "inproc"
	}
}

// baseTransportKind maps a base transport (walked through the wrapper
// chain) back to its TransportKind, so results report the link actually
// carrying frames rather than a configuration default.
func baseTransportKind(tr cosim.Transport) (TransportKind, bool) {
	switch cosim.BaseTransportName(tr) {
	case "inproc":
		return TransportInProc, true
	case "tcp":
		return TransportTCP, true
	case "unix":
		return TransportUDS, true
	case "shm":
		return TransportShm, true
	default:
		return 0, false
	}
}

// RunConfig configures one full co-simulation of the router testbench.
type RunConfig struct {
	TB        TBConfig
	TSync     uint64
	Mode      cosim.SyncMode
	Transport TransportKind
	BoardCfg  board.Config
	AppCfg    AppConfig
	// MaxCycles bounds the run; 0 derives a budget from the workload.
	MaxCycles uint64
	// LinkDelay adds a wall-clock latency per message in each direction,
	// emulating the paper's host↔board Ethernet (see cosim.DelayTransport).
	LinkDelay time.Duration
	// Chaos, when non-nil, injects seeded link faults (drop, duplicate,
	// reorder, corrupt, truncate, delay) in both directions beneath the
	// resilience layer. Pair it with Resilience or the run will fail.
	Chaos *cosim.Scenario
	// Resilience, when non-nil, wraps both sides in a
	// cosim.SessionTransport (sequence numbers, acks, retransmission),
	// making the run survive chaos faults with identical results.
	Resilience *cosim.SessionConfig
	// Obs, when non-nil, receives live metrics for the run: per-quantum
	// CLOCK rendezvous histograms and channel counters from both
	// endpoints, session resilience counters, and per-run router gauges.
	// Scrape it (see internal/obs) while the run is alive.
	Obs *obs.Registry
	// Adaptive enables lookahead-negotiated quantum elongation (see
	// federation.Schedule.Adaptive): the board's acknowledgements carry
	// lookahead promises, traffic-free TSync boundaries inside them are
	// skipped, and each grant's lead lands its traffic where plain
	// stepping would. Simulated-time results are bit-identical; only the
	// rendezvous count changes. Incompatible
	// with SyncPipelined (the pipelined acknowledgement is a quantum
	// stale, so its promise cannot be trusted).
	Adaptive bool
	// MaxQuantum caps the elongated quantum in clock cycles; 0 means no
	// cap, so a quiet stretch elongates until traffic or a lookahead
	// promise forces a rendezvous. A nonzero value needs Adaptive and
	// must be at least TSync.
	MaxQuantum uint64
	// Batch enables wire-frame coalescing on both sides (see
	// cosim.BatchTransport): a quantum's DATA/INT messages ride in one
	// MTBatch frame per channel flush.
	Batch bool
	// Federation is the run's N-party topology; nil means
	// FederationConfig{Boards: 1}, one device engine and one wire board.
	// Every topology runs under the same time manager, and every other
	// field keeps its meaning on each wire board link — except
	// TB.Engines, which is forced to the board count.
	Federation *FederationConfig
}

// DefaultRunConfig assembles the experiment defaults.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		TB:        DefaultTBConfig(),
		TSync:     1000,
		Mode:      cosim.SyncAlternating,
		Transport: TransportInProc,
		BoardCfg:  board.DefaultConfig(),
		AppCfg:    DefaultAppConfig(),
	}
}

// Budget returns the cycle bound for the run: MaxCycles, or when that is
// 0 the workload's cycles plus 8×TSync+20000 of slack. Validate rejects
// a TSync whose derived budget would wrap.
func (rc RunConfig) Budget() uint64 {
	if rc.MaxCycles != 0 {
		return rc.MaxCycles
	}
	return rc.TB.WorkCycles() + 8*rc.TSync + 20000
}

// RunResult collects every counter of one co-simulation run.
type RunResult struct {
	HW        hdlsim.DriverStats
	Router    Stats
	Consumers ConsumerStats
	App       AppStats
	Board     board.Stats
	Link      cosim.Metrics
	// Batch holds the HW side's wire-frame coalescing counters; all
	// zeros when Batch was off.
	Batch cosim.BatchStats

	Generated     uint64
	Accuracy      float64 // forwarded / generated
	Wall          time.Duration
	BoardCycles   uint64
	BoardSWTicks  uint64
	SimCycles     uint64
	Conservation  error // non-nil if the accounting invariant failed
	TSync         uint64
	TransportKind TransportKind
	Mode          cosim.SyncMode
}

// String formats the headline numbers.
func (r RunResult) String() string {
	return fmt.Sprintf("Tsync=%d %s/%s: N=%d acc=%.1f%% wall=%v syncs=%d",
		r.TSync, r.TransportKind, r.Mode, r.Generated, 100*r.Accuracy, r.Wall, r.HW.SyncEvents)
}

// Validate rejects incoherent configurations up front, with actionable
// errors, instead of letting them fail (or hang) mid-run. router.Run,
// farm.Farm.Submit and farm.SessionSpec.RunConfig all call it; call it
// directly when building configs programmatically.
func (rc RunConfig) Validate() error {
	if rc.Federation != nil {
		if err := rc.Federation.Validate(); err != nil {
			return err
		}
	}
	if rc.TSync == 0 {
		return fmt.Errorf("router: invalid RunConfig: TSync is 0, so the simulator would never grant virtual time; set a synchronization interval ≥ 1 (DefaultRunConfig uses 1000)")
	}
	if rc.LinkDelay < 0 {
		return fmt.Errorf("router: invalid RunConfig: LinkDelay %v is negative; use 0 to disable the emulated link latency", rc.LinkDelay)
	}
	if rc.Chaos != nil && rc.Resilience == nil {
		return fmt.Errorf("router: invalid RunConfig: Chaos without Resilience — injected faults would corrupt the protocol mid-run; set Resilience (e.g. cosim.DefaultSessionConfig()) or drop Chaos")
	}
	if rc.Resilience != nil {
		if err := rc.Resilience.Validate(); err != nil {
			return fmt.Errorf("router: invalid RunConfig: Resilience: %w", err)
		}
	}
	if rc.Chaos != nil {
		if err := rc.Chaos.Validate(); err != nil {
			return fmt.Errorf("router: invalid RunConfig: Chaos: %w", err)
		}
	}
	if rc.Adaptive && rc.Mode == cosim.SyncPipelined {
		return fmt.Errorf("router: invalid RunConfig: Adaptive with SyncPipelined — the pipelined acknowledgement describes a quantum that is already granted, so its lookahead promise is stale; use SyncAlternating or drop Adaptive")
	}
	if rc.Mode == cosim.SyncPipelined && rc.Federation != nil && rc.Federation.InProcBoards {
		return fmt.Errorf("router: invalid RunConfig: SyncPipelined with InProcBoards — an in-process board has no wire to hold a second grant in flight, so the run would step alternating while reporting pipelined; use SyncAlternating or wire boards")
	}
	if rc.MaxQuantum != 0 && !rc.Adaptive {
		return fmt.Errorf("router: invalid RunConfig: MaxQuantum %d without Adaptive — only adaptive runs elongate quanta, so the cap would do nothing; set Adaptive or leave MaxQuantum 0", rc.MaxQuantum)
	}
	if rc.MaxQuantum != 0 && rc.MaxQuantum < rc.TSync {
		return fmt.Errorf("router: invalid RunConfig: MaxQuantum %d is below TSync %d — no quantum can be shorter than TSync; set MaxQuantum ≥ TSync, or 0 for no cap", rc.MaxQuantum, rc.TSync)
	}
	// Bound the quantum arithmetic. The derived cycle budget is
	// WorkCycles + 8×TSync + slack, and the board multiplies every
	// granted tick by CyclesPerGrantTick; a TSync large enough to wrap
	// either product would silently truncate the run instead of failing.
	const budgetSlack = 20000
	work := rc.TB.WorkCycles()
	if rc.MaxCycles == 0 {
		if work > math.MaxUint64-budgetSlack || rc.TSync > (math.MaxUint64-budgetSlack-work)/8 {
			return fmt.Errorf("router: invalid RunConfig: TSync %d overflows the derived cycle budget (WorkCycles %d + 8×TSync + %d wraps uint64); lower TSync below %d or set MaxCycles explicitly", rc.TSync, work, budgetSlack, (math.MaxUint64-budgetSlack-work)/8)
		}
	}
	if cpt := rc.BoardCfg.CyclesPerGrantTick; cpt > 1 && rc.Budget() > math.MaxUint64/cpt {
		return fmt.Errorf("router: invalid RunConfig: cycle budget %d × CyclesPerGrantTick %d overflows the board's cycle accounting; lower TSync/MaxCycles or CyclesPerGrantTick", rc.Budget(), cpt)
	}
	switch rc.Transport {
	case TransportInProc, TransportTCP, TransportUDS:
	case TransportShm:
		if !cosim.ShmSupported() {
			return fmt.Errorf("router: invalid RunConfig: TransportShm is unsupported on this platform (no mmap); use TransportUDS or TransportTCP")
		}
	default:
		return fmt.Errorf("router: invalid RunConfig: unknown TransportKind %d", rc.Transport)
	}
	return nil
}

// stack derives the hw-side transport-stack layers from the config; the
// board side uses its Peer().
func (rc RunConfig) stack() cosim.StackConfig {
	return cosim.StackConfig{Delay: rc.LinkDelay, Chaos: rc.Chaos, Session: rc.Resilience, Batch: rc.Batch}
}

// dialPair establishes a private link of the given kind between the two
// sides of one run. The socket kinds listen on a private address, accept
// on a helper goroutine and dial (see acceptAndDial); a Unix socket lives
// in a fresh temp directory that is removed once both sides connected.
func dialPair(kind TransportKind) (hwT, boardT cosim.Transport, err error) {
	switch kind {
	case TransportTCP:
		ln, err := cosim.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		return acceptAndDial(ln)
	case TransportUDS:
		dir, err := os.MkdirTemp("", "cosim-uds-*")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		ln, err := cosim.ListenUDS(filepath.Join(dir, "s"))
		if err != nil {
			return nil, nil, err
		}
		return acceptAndDial(ln)
	case TransportShm:
		return cosim.NewShmPair(cosim.ShmConfig{})
	default:
		hwT, boardT = cosim.NewInProcPair(4096)
		return hwT, boardT, nil
	}
}

// acceptAndDial completes a self-dialed link over an open listener, which
// it always closes before returning. Every path joins the accept
// goroutine and closes whatever it produced, so a failed dial can never
// leak an accepted transport.
func acceptAndDial(ln *cosim.Listener) (hwT, boardT cosim.Transport, err error) {
	defer ln.Close()
	type accepted struct {
		tr  cosim.Transport
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		tr, aerr := ln.Accept()
		acc <- accepted{tr, aerr}
	}()
	boardT, err = cosim.DialNet(ln.Network(), ln.Addr())
	if err != nil {
		// The accept may still have succeeded (e.g. the dial failed on
		// a later channel): unblock it, join it, and close its result.
		ln.Close()
		if a := <-acc; a.tr != nil {
			a.tr.Close()
		}
		return nil, nil, err
	}
	a := <-acc
	if a.err != nil {
		boardT.Close()
		return nil, nil, a.err
	}
	return a.tr, boardT, nil
}

// RunLoopback executes the same HDL workload against the instant local
// verifier — the paper's "simulation without synchronization" normalizer.
func RunLoopback(tbc TBConfig) (RunResult, error) {
	res := RunResult{TSync: 0, TransportKind: TransportInProc}
	tb := BuildTestbench(tbc)
	start := time.Now()
	hwStats, err := tb.Loopback(NewLoopbackEndpoint(), tbc.WorkCycles()+20000, tb.Finished)
	res.Wall = time.Since(start)
	if err != nil {
		return res, err
	}
	res.HW = hwStats
	res.Router = tb.Router.Stats()
	res.Consumers = tb.ConsumerTotals()
	res.Generated = tb.Generated()
	res.SimCycles = hwStats.Cycles
	if res.Generated > 0 {
		res.Accuracy = float64(res.Router.Forwarded) / float64(res.Generated)
	}
	res.Conservation = tb.CheckConservation(0, 0)
	return res, nil
}
