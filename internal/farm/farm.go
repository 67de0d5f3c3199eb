// Package farm is the multi-session co-simulation manager: where
// router.Run runs one simulator↔board pair, a Farm runs many
// independent sessions concurrently — a bounded worker pool fed by a
// submission queue with backpressure, one TCP front door (a
// cosim.MuxListener) multiplexing every board, per-session IDs and
// cancellation, graceful drain, and aggregate plus per-session metrics
// in an obs.Registry.
//
// The paper's setup is one simulator talking to one board over three
// sockets; the farm is that setup at production scale: N testbenches in
// flight, each with its own deterministic virtual time, sharing nothing
// but the listener and the metrics registry.
package farm

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cosim"
	"repro/internal/obs"
	"repro/internal/router"
)

// ErrQueueFull is returned by TrySubmit when the submission queue is at
// capacity — the backpressure signal.
var ErrQueueFull = errors.New("farm: submission queue full")

// ErrDraining is returned by Submit/TrySubmit after Drain began: the
// farm finishes what it has but accepts nothing new.
var ErrDraining = errors.New("farm: draining, not accepting new sessions")

// ErrClosed is returned by operations on a closed farm, and is the
// terminal error of sessions that were still queued when the farm shut
// down.
var ErrClosed = errors.New("farm: closed")

// Config tunes a Farm. The zero value is usable: 4 workers, a queue of
// twice that, a loopback listener, no metrics.
type Config struct {
	// Workers bounds the number of sessions running concurrently.
	Workers int
	// QueueDepth bounds the number of accepted-but-not-yet-running
	// sessions; a full queue pushes back on submitters.
	QueueDepth int
	// ListenAddr is the multiplexing listener's address, the front door
	// every socket session's board dials (default "127.0.0.1:0" over
	// "tcp"; a filesystem path when ListenNetwork is "unix").
	ListenAddr string
	// ListenNetwork selects the front door's stream network: "tcp"
	// (default) or "unix". Sessions submitted with
	// router.TransportUDS rendezvous over a unix front door exactly as
	// TCP ones do over a tcp front door; the mux attach handshake is
	// byte-identical.
	ListenNetwork string
	// Obs, when non-nil, receives the farm's aggregate metrics and each
	// session's endpoint metrics (see docs/OBSERVABILITY.md).
	Obs *obs.Registry
	// PerSessionMetrics additionally publishes one labelled gauge per
	// completed session (rendezvous latency, wall time). Metric
	// cardinality grows with every session; leave it off for long-lived
	// farms scraped by a real Prometheus.
	PerSessionMetrics bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.ListenNetwork == "" {
		c.ListenNetwork = "tcp"
	}
	if c.ListenAddr == "" && c.ListenNetwork == "tcp" {
		c.ListenAddr = "127.0.0.1:0"
	}
	return c
}

// SessionState is the lifecycle position of one session.
type SessionState int32

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued SessionState = iota
	// StateRunning: a worker is executing the co-simulation.
	StateRunning
	// StateDone: finished; Result is valid.
	StateDone
)

// String implements fmt.Stringer.
func (s SessionState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("SessionState(%d)", int32(s))
	}
}

// errCancelled is the cancellation cause recorded by Session.Cancel,
// distinguishing a caller's abort from a farm-wide shutdown (ErrClosed).
var errCancelled = errors.New("cancelled by caller")

// Session is the handle of one submitted co-simulation run.
type Session struct {
	id     uint64
	cfg    router.RunConfig
	ctx    context.Context
	cancel context.CancelCauseFunc

	state atomic.Int32
	done  chan struct{}
	res   router.RunResult
	err   error
}

// ID returns the farm-unique session ID — the value a TCP board attaches
// with on the mux listener.
func (s *Session) ID() uint64 { return s.id }

// State returns the session's current lifecycle state.
func (s *Session) State() SessionState { return SessionState(s.state.Load()) }

// Done returns a channel closed when the session has finished.
func (s *Session) Done() <-chan struct{} { return s.done }

// Cancel aborts the session: a queued session fails without running, a
// running one has its link torn down and fails promptly.
func (s *Session) Cancel() { s.cancel(errCancelled) }

// Result returns the run's outcome. It blocks until the session is done.
func (s *Session) Result() (router.RunResult, error) {
	<-s.done
	return s.res, s.err
}

// Wait blocks until the session finishes or ctx ends.
func (s *Session) Wait(ctx context.Context) (router.RunResult, error) {
	select {
	case <-s.done:
		return s.res, s.err
	case <-ctx.Done():
		return router.RunResult{}, ctx.Err()
	}
}

func (s *Session) finish(res router.RunResult, err error) {
	s.res, s.err = res, err
	s.state.Store(int32(StateDone))
	close(s.done)
}

// Farm runs co-simulation sessions on a bounded worker pool.
type Farm struct {
	cfg Config
	ln  *cosim.MuxListener
	// sockDir, when non-empty, is a farm-owned temp directory holding the
	// unix front-door socket; Close removes it.
	sockDir string

	ctx    context.Context
	cancel context.CancelCauseFunc
	queue  chan *Session
	wg     sync.WaitGroup // workers
	sessWG sync.WaitGroup // accepted-but-unfinished sessions

	mu       sync.Mutex
	draining bool
	closed   bool

	nextID    atomic.Uint64
	active    atomic.Int64
	completed atomic.Uint64
	failed    atomic.Uint64
	rejected  atomic.Uint64
	started   time.Time

	// Metric handles resolved once at registration: registry lookups
	// lock and hash the name, so per-event paths use these fields.
	mSubmitted     *obs.Counter
	mSessionWall   *obs.Histogram
	mRendezvous    *obs.Histogram
	mRetransmits   *obs.Counter
	mFramesInjured *obs.Counter
}

// New starts a farm configured by applying opts to the zero Config: the
// mux listener and the workers come up immediately. Call Close (or
// Drain, then Close) when done with it.
func New(opts ...Option) (*Farm, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	cfg = cfg.withDefaults()
	var sockDir string
	if cfg.ListenNetwork == "unix" && cfg.ListenAddr == "" {
		dir, err := os.MkdirTemp("", "cosim-farm-*")
		if err != nil {
			return nil, fmt.Errorf("farm: socket dir: %w", err)
		}
		sockDir = dir
		cfg.ListenAddr = filepath.Join(dir, "s")
	}
	ln, err := cosim.ListenMuxNet(cfg.ListenNetwork, cfg.ListenAddr)
	if err != nil {
		if sockDir != "" {
			os.RemoveAll(sockDir)
		}
		return nil, fmt.Errorf("farm: listen: %w", err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	f := &Farm{
		cfg:     cfg,
		ln:      ln,
		sockDir: sockDir,
		ctx:     ctx,
		cancel:  cancel,
		queue:   make(chan *Session, cfg.QueueDepth),
		started: time.Now(),
	}
	f.registerMetrics()
	for i := 0; i < cfg.Workers; i++ {
		f.wg.Add(1)
		go f.worker()
	}
	return f, nil
}

// Addr returns the mux listener's address — where external boards dial
// in with cosim.DialTCPSession.
func (f *Farm) Addr() string { return f.ln.Addr() }

// Network returns the front door's stream network ("tcp" or "unix").
func (f *Farm) Network() string { return f.ln.Network() }

// Snapshot is a point-in-time view of the farm's aggregate state — what
// a fleet host agent reports in its health heartbeats and cosim-farmctl
// prints for `status`.
type Snapshot struct {
	Workers       int    `json:"workers"`
	QueueCapacity int    `json:"queue_capacity"`
	Active        int64  `json:"active"`
	Queued        int    `json:"queued"`
	Completed     uint64 `json:"completed"`
	Failed        uint64 `json:"failed"`
	Rejected      uint64 `json:"rejected"`
	Draining      bool   `json:"draining"`
	Closed        bool   `json:"closed"`
}

// Snapshot returns the farm's current aggregate counters.
func (f *Farm) Snapshot() Snapshot {
	f.mu.Lock()
	draining, closed := f.draining, f.closed
	f.mu.Unlock()
	return Snapshot{
		Workers:       f.cfg.Workers,
		QueueCapacity: f.cfg.QueueDepth,
		Active:        f.active.Load(),
		Queued:        len(f.queue),
		Completed:     f.completed.Load(),
		Failed:        f.failed.Load(),
		Rejected:      f.rejected.Load(),
		Draining:      draining,
		Closed:        closed,
	}
}

// registerMetrics publishes the aggregate farm instruments. Counters are
// registered eagerly so a scrape sees them (at zero) from the first
// moment of the farm's life.
func (f *Farm) registerMetrics() {
	reg := f.cfg.Obs
	if reg == nil {
		return
	}
	reg.GaugeFunc("farm_active_sessions", func() float64 { return float64(f.active.Load()) })
	reg.GaugeFunc("farm_queue_depth", func() float64 { return float64(len(f.queue)) })
	qcap := reg.Gauge("farm_queue_capacity")
	qcap.Set(float64(f.cfg.QueueDepth))
	workers := reg.Gauge("farm_workers")
	workers.Set(float64(f.cfg.Workers))
	reg.CounterFunc("farm_sessions_completed_total", f.completed.Load)
	reg.CounterFunc("farm_sessions_failed_total", f.failed.Load)
	reg.CounterFunc("farm_sessions_rejected_total", f.rejected.Load)
	reg.CounterFunc("farm_listener_rejects_total", f.ln.Rejected)
	f.mSubmitted = reg.Counter("farm_sessions_submitted_total")
	f.mSessionWall = reg.Histogram("farm_session_wall_seconds", nil)
	f.mRendezvous = reg.Histogram("farm_session_rendezvous_seconds", nil)
	f.mRetransmits = reg.Counter("farm_link_retransmits_total")
	f.mFramesInjured = reg.Counter("farm_link_frames_injured_total")
	reg.GaugeFunc("farm_sessions_per_sec", func() float64 {
		elapsed := time.Since(f.started).Seconds()
		if elapsed <= 0 {
			return 0
		}
		return float64(f.completed.Load()) / elapsed
	})
}

// newSession allocates the handle; the session context descends from the
// farm's so Close cancels every run, and the run publishes into the
// farm's registry.
func (f *Farm) newSession(rc router.RunConfig) *Session {
	ctx, cancel := context.WithCancelCause(f.ctx)
	rc.Obs = f.cfg.Obs
	return &Session{
		id:     f.nextID.Add(1),
		cfg:    rc,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
}

// admit lowers and validates the spec and checks the farm's acceptance
// state; an invalid spec is rejected without queueing.
func (f *Farm) admit(spec SessionSpec) (*Session, error) {
	rc, err := spec.RunConfig()
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if f.draining {
		return nil, ErrDraining
	}
	return f.newSession(rc), nil
}

// Submit queues one co-simulation described by a serializable
// SessionSpec, blocking while the queue is full (backpressure) until
// space frees, ctx ends, or the farm shuts down.
func (f *Farm) Submit(ctx context.Context, spec SessionSpec) (*Session, error) {
	s, err := f.admit(spec)
	if err != nil {
		return nil, err
	}
	f.sessWG.Add(1)
	select {
	case f.queue <- s:
		f.countSubmitted()
		return s, nil
	case <-ctx.Done():
		f.sessWG.Done()
		f.rejected.Add(1)
		return nil, ctx.Err()
	case <-f.ctx.Done():
		f.sessWG.Done()
		return nil, ErrClosed
	}
}

// TrySubmit is Submit without the wait: a full queue returns
// ErrQueueFull immediately.
func (f *Farm) TrySubmit(spec SessionSpec) (*Session, error) {
	s, err := f.admit(spec)
	if err != nil {
		return nil, err
	}
	f.sessWG.Add(1)
	select {
	case f.queue <- s:
		f.countSubmitted()
		return s, nil
	default:
		f.sessWG.Done()
		f.rejected.Add(1)
		return nil, ErrQueueFull
	}
}

func (f *Farm) countSubmitted() {
	if f.mSubmitted != nil {
		f.mSubmitted.Inc()
	}
}

// Drain stops admission and waits until every accepted session has
// finished (or ctx ends). The farm stays alive for metric scrapes; call
// Close afterwards to release the listener and workers.
func (f *Farm) Drain(ctx context.Context) error {
	f.mu.Lock()
	f.draining = true
	f.mu.Unlock()
	done := make(chan struct{})
	go func() {
		f.sessWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close shuts the farm down: admission stops, running sessions are
// cancelled (their links are torn down), queued sessions fail with
// ErrClosed, workers exit, and the listener closes. Idempotent.
func (f *Farm) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.draining = true
	f.mu.Unlock()

	f.cancel(ErrClosed)
	f.wg.Wait()
	// Workers are gone; whatever is still queued never ran.
	for {
		select {
		case s := <-f.queue:
			s.finish(router.RunResult{}, ErrClosed)
			f.failed.Add(1)
			f.sessWG.Done()
		default:
			err := f.ln.Close()
			if f.sockDir != "" {
				os.RemoveAll(f.sockDir)
			}
			return err
		}
	}
}

func (f *Farm) worker() {
	defer f.wg.Done()
	for {
		select {
		case <-f.ctx.Done():
			return
		case s := <-f.queue:
			f.runSession(s)
			f.sessWG.Done()
		}
	}
}

// sessionErr maps a cancelled session's context to its terminal error:
// a farm-wide shutdown surfaces ErrClosed, a caller's Cancel names the
// session and its cause.
func sessionErr(s *Session) error {
	cause := context.Cause(s.ctx)
	if errors.Is(cause, ErrClosed) {
		return ErrClosed
	}
	return fmt.Errorf("farm: session %d cancelled: %w", s.id, cause)
}

// runSession executes one session on the calling worker goroutine.
func (f *Farm) runSession(s *Session) {
	if s.ctx.Err() != nil {
		// Cancelled (or farm closed) while queued.
		s.finish(router.RunResult{}, sessionErr(s))
		f.failed.Add(1)
		return
	}
	s.state.Store(int32(StateRunning))
	f.active.Add(1)
	start := time.Now()
	res, err := f.execute(s)
	if err != nil && s.ctx.Err() != nil {
		// Any failure after cancellation is reported as the cancellation,
		// whether it surfaced in the rendezvous or mid-run.
		err = sessionErr(s)
	}
	wall := time.Since(start)
	f.active.Add(-1)
	if err != nil {
		f.failed.Add(1)
	} else {
		f.completed.Add(1)
	}
	f.observeSession(s, res, err, wall)
	s.finish(res, err)
}

// execute runs the session through the shared run entry point, first
// joining its link on the farm's mux listener when the session uses it.
func (f *Farm) execute(s *Session) (router.RunResult, error) {
	fc := s.cfg.Federation
	federated := fc != nil && (fc.InProcBoards || fc.Boards != 1)
	if federated || (s.cfg.Transport != router.TransportTCP && s.cfg.Transport != router.TransportUDS) {
		// Only a single-board TCP or UDS session rides the farm's mux
		// listener. Every other session — inproc, shm, or a federation
		// with several boards (or in-process board hosting), which
		// establishes its own link per board — gets a zero Transports
		// value, and router.Run opens its links itself.
		return router.Run(s.ctx, router.Transports{}, router.WithConfig(s.cfg))
	}
	// The hw side registers the session ID on the shared listener first,
	// then the board dials in and is routed back to it — the same
	// rendezvous an external board would perform against cmd/cosim-farm.
	// The front door's network (tcp or unix) decides what actually
	// carries the frames; the handshake is identical.
	pend, err := f.ln.Expect(s.id)
	if err != nil {
		return router.RunResult{}, err
	}
	type dialed struct {
		tr  cosim.Transport
		err error
	}
	dc := make(chan dialed, 1)
	go func() {
		tr, derr := cosim.DialSession(f.ln.Network(), f.ln.Addr(), s.id)
		dc <- dialed{tr, derr}
	}()
	hwB, err := pend.Accept(s.ctx)
	d := <-dc
	if err != nil {
		if d.tr != nil {
			d.tr.Close()
		}
		return router.RunResult{}, err
	}
	if d.err != nil {
		hwB.Close()
		return router.RunResult{}, d.err
	}

	// Cancellation is router.Run's job: it watches s.ctx and tears the
	// transport stacks down, aborting both sides promptly.
	return router.Run(s.ctx, router.Transports{HW: hwB, Board: d.tr}, router.WithConfig(s.cfg))
}

// observeSession records one finished session in the registry.
func (f *Farm) observeSession(s *Session, res router.RunResult, err error, wall time.Duration) {
	reg := f.cfg.Obs
	if reg == nil || err != nil {
		return
	}
	f.mSessionWall.ObserveDuration(wall)
	var rendezvous float64
	if res.HW.SyncEvents > 0 {
		rendezvous = res.Link.SyncWait.Seconds() / float64(res.HW.SyncEvents)
		f.mRendezvous.Observe(rendezvous)
	}
	f.mRetransmits.Add(res.Link.Link.Retransmits)
	f.mFramesInjured.Add(res.Link.Link.FramesInjured)
	if f.cfg.PerSessionMetrics {
		id := fmt.Sprintf("%d", s.id)
		// The metric name embeds the session id, so these handles cannot be
		// hoisted to registration time.
		reg.Gauge(obs.Name("farm_session_rendezvous_avg_seconds", "session", id)).Set(rendezvous) //cosim:ignore obshandle -- per-session gauge names are dynamic
		reg.Gauge(obs.Name("farm_session_wall_seconds_last", "session", id)).Set(wall.Seconds())  //cosim:ignore obshandle -- per-session gauge names are dynamic
	}
}
