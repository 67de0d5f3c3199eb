package farm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cosim"
	"repro/internal/router"
)

// SessionSpec is the serializable description of one co-simulation
// session: everything a submitter may choose, as plain data. It is the
// farm's submission format (Submit/TrySubmit) and the payload the fleet
// control plane carries between a coordinator and its hosts — a spec
// written as JSON on one machine lowers to the identical router.RunConfig
// on any other, which is what makes fleet-placed runs bit-identical to
// local ones.
//
// Zero fields keep the corresponding DefaultRunConfig value, so the zero
// SessionSpec is the default in-process run. Durations are explicit
// integer fields with a unit suffix (_us, _ms) rather than opaque
// nanosecond counts, because specs are meant to be written by hand.
//
// Deliberately not expressible as a spec: Obs, which the executing farm
// attaches. A spec describes a session; the host decides how to observe
// it.
type SessionSpec struct {
	// Tenant names the submitting tenant for fleet admission control and
	// per-tenant metrics. The farm itself ignores it; "" is the default
	// tenant.
	Tenant string `json:"tenant,omitempty"`
	// Transport selects the link kind: "inproc" (default), "tcp", "uds"
	// or "shm".
	Transport string `json:"transport,omitempty"`
	// TSync is the synchronization interval in cycles (0 = default 1000).
	TSync uint64 `json:"tsync,omitempty"`
	// Mode is the rendezvous scheduling mode: "alternating" (default) or
	// "pipelined".
	Mode string `json:"mode,omitempty"`
	// Adaptive enables lookahead-negotiated quantum elongation;
	// MaxQuantum caps the elongated quantum (0 = no cap; a nonzero cap
	// needs Adaptive and must be at least TSync).
	Adaptive   bool   `json:"adaptive,omitempty"`
	MaxQuantum uint64 `json:"max_quantum,omitempty"`
	// Batch enables wire-frame coalescing (one MTBatch per channel flush).
	Batch bool `json:"batch,omitempty"`
	// MaxCycles bounds the run explicitly (0 derives a budget).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// LinkDelayUS adds an emulated per-message link latency, in
	// microseconds, in each direction.
	LinkDelayUS int64 `json:"link_delay_us,omitempty"`
	// Chaos, when non-nil, injects seeded link faults; pair it with
	// Resilience or validation fails.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
	// Resilience, when non-nil, wraps the link in the session layer
	// (seq/ack/nack, CRC, retransmission).
	Resilience *ResilienceSpec `json:"resilience,omitempty"`
	// TB tunes the hardware testbench workload.
	TB *TBSpec `json:"tb,omitempty"`
	// Board tunes the virtual board timing.
	Board *BoardSpec `json:"board,omitempty"`
	// App tunes the board application.
	App *AppSpec `json:"app,omitempty"`
	// Federation, when non-nil, is the session's N-party topology
	// (router.RunConfig.Federation): boards, inproc_boards,
	// pulse_devices and pulse_period.
	Federation *router.FederationConfig `json:"federation,omitempty"`
}

// ChaosSpec is a serializable cosim.Scenario with one uniform
// FaultProfile across all three channels — the shape every caller in the
// repo actually uses. Probabilities are per frame.
type ChaosSpec struct {
	Seed       int64   `json:"seed"`
	Drop       float64 `json:"drop,omitempty"`
	Duplicate  float64 `json:"duplicate,omitempty"`
	Reorder    float64 `json:"reorder,omitempty"`
	Corrupt    float64 `json:"corrupt,omitempty"`
	Truncate   float64 `json:"truncate,omitempty"`
	Delay      float64 `json:"delay,omitempty"`
	MaxDelayUS int64   `json:"max_delay_us,omitempty"`
}

// ResilienceSpec tunes the session layer. Zero fields keep the
// cosim.DefaultSessionConfig value; negative ones fail lowering (see
// cosim.SessionConfig.Validate).
type ResilienceSpec struct {
	RetransmitTimeoutMS int64 `json:"retransmit_timeout_ms,omitempty"`
	HeartbeatIntervalMS int64 `json:"heartbeat_interval_ms,omitempty"`
	HeartbeatMiss       int   `json:"heartbeat_miss,omitempty"`
}

// TBSpec tunes the router testbench workload. Zero fields keep the
// DefaultTBConfig value (so Seed 0 keeps the default seed 1; use an
// explicit non-zero seed to decorrelate sessions).
type TBSpec struct {
	Ports          int     `json:"ports,omitempty"`
	FIFOCap        int     `json:"fifo_cap,omitempty"`
	PacketsPerPort int     `json:"packets_per_port,omitempty"`
	Period         uint64  `json:"period,omitempty"`
	DataWords      int     `json:"data_words,omitempty"`
	ErrRate        float64 `json:"err_rate,omitempty"`
	MulticastRate  float64 `json:"multicast_rate,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
}

// BoardSpec tunes the virtual board. Zero fields keep the
// board.DefaultConfig value.
type BoardSpec struct {
	CyclesPerGrantTick uint64 `json:"cycles_per_grant_tick,omitempty"`
	MMIOReadCost       uint64 `json:"mmio_read_cost,omitempty"`
	MMIOWriteCost      uint64 `json:"mmio_write_cost,omitempty"`
}

// AppSpec tunes the board application. Zero fields keep the
// DefaultAppConfig value.
type AppSpec struct {
	// Timing selects the software timing model: "iss" (default) or
	// "annotated".
	Timing          string `json:"timing,omitempty"`
	MailboxCap      int    `json:"mailbox_cap,omitempty"`
	Priority        int    `json:"priority,omitempty"`
	WatchdogTimeout uint64 `json:"watchdog_timeout,omitempty"`
}

// ParseTransportKind maps a spec transport name to its TransportKind.
func ParseTransportKind(name string) (router.TransportKind, error) {
	switch name {
	case "", "inproc":
		return router.TransportInProc, nil
	case "tcp":
		return router.TransportTCP, nil
	case "uds", "unix":
		return router.TransportUDS, nil
	case "shm":
		return router.TransportShm, nil
	default:
		return 0, fmt.Errorf("farm: invalid SessionSpec: unknown transport %q (want inproc, tcp, uds or shm)", name)
	}
}

// RunConfig lowers the spec onto router.DefaultRunConfig and validates
// the result: the returned config is exactly what router.Run will see.
// Lowering is pure data — two lowerings of the same spec, on any two
// hosts, produce identical configs, which is the foundation of the
// fleet's bit-identical placement guarantee.
func (s SessionSpec) RunConfig() (router.RunConfig, error) {
	rc := router.DefaultRunConfig()
	kind, err := ParseTransportKind(s.Transport)
	if err != nil {
		return rc, err
	}
	rc.Transport = kind
	switch s.Mode {
	case "", "alternating":
		rc.Mode = cosim.SyncAlternating
	case "pipelined":
		rc.Mode = cosim.SyncPipelined
	default:
		return rc, fmt.Errorf("farm: invalid SessionSpec: unknown mode %q (want alternating or pipelined)", s.Mode)
	}
	if s.TSync != 0 {
		rc.TSync = s.TSync
	}
	rc.Adaptive = s.Adaptive
	rc.MaxQuantum = s.MaxQuantum
	rc.Batch = s.Batch
	rc.MaxCycles = s.MaxCycles
	if s.LinkDelayUS < 0 {
		return rc, fmt.Errorf("farm: invalid SessionSpec: link_delay_us %d is negative", s.LinkDelayUS)
	}
	rc.LinkDelay = time.Duration(s.LinkDelayUS) * time.Microsecond

	if c := s.Chaos; c != nil {
		sc := cosim.UniformScenario(c.Seed, cosim.FaultProfile{
			Drop:      c.Drop,
			Duplicate: c.Duplicate,
			Reorder:   c.Reorder,
			Corrupt:   c.Corrupt,
			Truncate:  c.Truncate,
			Delay:     c.Delay,
			MaxDelay:  time.Duration(c.MaxDelayUS) * time.Microsecond,
		})
		rc.Chaos = &sc
	}
	if r := s.Resilience; r != nil {
		sess := cosim.DefaultSessionConfig()
		if r.RetransmitTimeoutMS != 0 {
			sess.RetransmitTimeout = time.Duration(r.RetransmitTimeoutMS) * time.Millisecond
		}
		if r.HeartbeatIntervalMS != 0 {
			sess.HeartbeatInterval = time.Duration(r.HeartbeatIntervalMS) * time.Millisecond
		}
		if r.HeartbeatMiss != 0 {
			sess.HeartbeatMiss = r.HeartbeatMiss
		}
		rc.Resilience = &sess
	}
	if tb := s.TB; tb != nil {
		if tb.Ports != 0 {
			rc.TB.Ports = tb.Ports
		}
		if tb.FIFOCap != 0 {
			rc.TB.FIFOCap = tb.FIFOCap
		}
		if tb.PacketsPerPort != 0 {
			rc.TB.PacketsPerPort = tb.PacketsPerPort
		}
		if tb.Period != 0 {
			rc.TB.Period = tb.Period
		}
		if tb.DataWords != 0 {
			rc.TB.DataWords = tb.DataWords
		}
		if tb.ErrRate != 0 {
			rc.TB.ErrRate = tb.ErrRate
		}
		if tb.MulticastRate != 0 {
			rc.TB.MulticastRate = tb.MulticastRate
		}
		if tb.Seed != 0 {
			rc.TB.Seed = tb.Seed
		}
	}
	if b := s.Board; b != nil {
		if b.CyclesPerGrantTick != 0 {
			rc.BoardCfg.CyclesPerGrantTick = b.CyclesPerGrantTick
		}
		if b.MMIOReadCost != 0 {
			rc.BoardCfg.MMIOReadCost = b.MMIOReadCost
		}
		if b.MMIOWriteCost != 0 {
			rc.BoardCfg.MMIOWriteCost = b.MMIOWriteCost
		}
	}
	if a := s.App; a != nil {
		switch a.Timing {
		case "", "iss":
			rc.AppCfg.Timing = router.TimingISS
		case "annotated":
			rc.AppCfg.Timing = router.TimingAnnotated
		default:
			return rc, fmt.Errorf("farm: invalid SessionSpec: unknown app timing %q (want iss or annotated)", a.Timing)
		}
		if a.MailboxCap != 0 {
			rc.AppCfg.MailboxCap = a.MailboxCap
		}
		if a.Priority != 0 {
			rc.AppCfg.Priority = a.Priority
		}
		if a.WatchdogTimeout != 0 {
			rc.AppCfg.WatchdogTimeout = a.WatchdogTimeout
		}
	}
	if s.Federation != nil {
		fc := *s.Federation
		rc.Federation = &fc
	}
	if err := rc.Validate(); err != nil {
		return rc, err
	}
	return rc, nil
}

// ErrTrailingData rejects a spec document with anything but whitespace
// after its JSON object.
var ErrTrailingData = errors.New("farm: parsing SessionSpec: trailing data after the spec object")

// ParseSpec decodes one SessionSpec from JSON, rejecting unknown fields
// and trailing data — a typo or a concatenated second spec in a
// hand-written spec file should fail submission, not silently run the
// default or the first workload.
func ParseSpec(data []byte) (SessionSpec, error) {
	var s SessionSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("farm: parsing SessionSpec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return SessionSpec{}, ErrTrailingData
	}
	return s, nil
}
