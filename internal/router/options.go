package router

import (
	"context"
	"io"

	"repro/internal/board"
	"repro/internal/cosim"
	"repro/internal/obs"
)

// Transports bundles the two base transports of one co-simulation run.
// The zero value asks Run to establish a private link itself, according
// to the configured TransportKind (in-process channels or loopback TCP).
type Transports struct {
	HW    cosim.Transport
	Board cosim.Transport
}

// Option mutates the RunConfig a Run starts from (DefaultRunConfig).
// Options are applied in order, so later options win; WithConfig replaces
// the whole configuration and is typically first when present.
type Option func(*RunConfig)

// WithConfig replaces the entire configuration. Use it to run a fully
// assembled RunConfig through the Run entry point (the removed
// RunCoSim/RunOnTransports wrappers did exactly this).
func WithConfig(rc RunConfig) Option { return func(c *RunConfig) { *c = rc } }

// WithTSync sets the synchronization interval in clock cycles.
func WithTSync(n uint64) Option { return func(c *RunConfig) { c.TSync = n } }

// WithSyncMode selects the rendezvous scheduling mode.
func WithSyncMode(m cosim.SyncMode) Option { return func(c *RunConfig) { c.Mode = m } }

// WithTransport selects how a self-dialed link is established; it has no
// effect when caller-provided Transports are used.
func WithTransport(k TransportKind) Option { return func(c *RunConfig) { c.Transport = k } }

// WithAdaptiveSync enables lookahead-negotiated quantum elongation with
// the given cap on the elongated quantum in clock cycles (0 means
// 64×TSync). Results are bit-identical in simulated time; only the number
// of rendezvous changes. Incompatible with SyncPipelined (Validate
// rejects the combination).
func WithAdaptiveSync(maxQuantum uint64) Option {
	return func(c *RunConfig) {
		c.Adaptive = true
		c.MaxQuantum = maxQuantum
	}
}

// WithBatching enables wire-frame coalescing on both sides of the link:
// a quantum's DATA/INT messages ride in one MTBatch frame per channel
// flush (see cosim.BatchTransport).
func WithBatching() Option { return func(c *RunConfig) { c.Batch = true } }

// WithStack sets the transport decorator layers from a cosim.StackConfig,
// the same structure BuildStack consumes: Delay, Chaos, Session and
// Batch. The board side automatically uses the config's Peer().
func WithStack(sc cosim.StackConfig) Option {
	return func(c *RunConfig) {
		c.LinkDelay = sc.Delay
		c.Chaos = sc.Chaos
		c.Resilience = sc.Session
		c.Batch = sc.Batch
	}
}

// WithStackOptions applies cosim.StackOption layers on top of the
// config's current transport-stack fields (later options win, as in
// cosim.StackConfig.With). It composes with WithStack: the options fold
// over whatever the config holds at application time.
func WithStackOptions(opts ...cosim.StackOption) Option {
	return func(c *RunConfig) {
		sc := c.stack().With(opts...)
		c.LinkDelay, c.Chaos, c.Resilience, c.Batch = sc.Delay, sc.Chaos, sc.Session, sc.Batch
	}
}

// WithFederation sets the run's N-party topology under the hierarchical
// time manager (internal/cosim/federation); without it a run has one
// wire board, FederationConfig{Boards: 1}. All other
// options keep their meaning — TSync, Adaptive/MaxQuantum, Mode,
// Transport, the stack fields and Obs apply to every wire board link —
// except TB.Engines, which is forced to the board count. Run then
// returns the embedded RunResult of the federated run; use RunFederation
// for the full FederationResult.
func WithFederation(fc FederationConfig) Option {
	return func(c *RunConfig) { c.Federation = &fc }
}

// WithObs publishes live metrics for the run into reg.
func WithObs(reg *obs.Registry) Option { return func(c *RunConfig) { c.Obs = reg } }

// WithTrace logs every protocol message on both sides of the link to w
// (see cosim.TraceTransport).
func WithTrace(w io.Writer) Option { return func(c *RunConfig) { c.Trace = w } }

// WithMaxCycles bounds the run explicitly instead of deriving a budget
// from the workload.
func WithMaxCycles(n uint64) Option { return func(c *RunConfig) { c.MaxCycles = n } }

// WithTB sets the hardware testbench configuration.
func WithTB(tbc TBConfig) Option { return func(c *RunConfig) { c.TB = tbc } }

// WithBoardConfig sets the virtual board configuration.
func WithBoardConfig(bc board.Config) Option { return func(c *RunConfig) { c.BoardCfg = bc } }

// WithAppConfig sets the board application configuration.
func WithAppConfig(ac AppConfig) Option { return func(c *RunConfig) { c.AppCfg = ac } }

// Run is the co-simulation entry point: it executes the full paper
// testbench configured by applying opts to DefaultRunConfig. The router
// HDL kernel and the virtual board(s) run under the federation time
// manager on the calling goroutine; each wire board's endpoint runs on
// its own goroutine. Without WithFederation the topology is one device
// engine and one wire board.
//
// tr supplies the base transports of that one board link. The zero
// value establishes a private link per the configured TransportKind; a
// populated pair (e.g. routed through a farm's shared listener) is owned
// by Run — both transports are closed by the time it returns.
//
// Cancelling ctx tears the link down, which unblocks both sides; Run then
// returns the context's cause as its error.
func Run(ctx context.Context, tr Transports, opts ...Option) (RunResult, error) {
	rc := DefaultRunConfig()
	for _, o := range opts {
		o(&rc)
	}
	res, err := run(ctx, rc, tr)
	return res.RunResult, err
}

func closeBoth(tr Transports) {
	if tr.HW != nil {
		tr.HW.Close()
	}
	if tr.Board != nil {
		tr.Board.Close()
	}
}
