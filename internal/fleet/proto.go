// Package fleet is the multi-host control plane above the farm: where a
// farm.Farm runs many sessions on one machine, a fleet Coordinator
// places sessions across N machines, each running a farm behind a small
// host agent (Host).
//
// The control protocol is deliberately tiny: newline-delimited JSON
// request/response pairs over a plain stream connection, one operation
// per round trip (docs/FLEET.md). The data plane is untouched — every
// session still runs the three-channel co-simulation protocol against
// its host farm's mux front door, and the determinism contract survives
// distribution: a spec re-placed on a different host after a failure
// produces the same virtual-time fingerprint, because the spec carries
// everything that defines the run and nothing that doesn't.
package fleet

import (
	"repro/internal/farm"
	"repro/internal/router"
)

// Control-protocol operations. Each request names one; each gets
// exactly one response on the same connection.
const (
	// OpHello introduces a coordinator to a host and returns the host's
	// identity and capacity.
	OpHello = "hello"
	// OpHealth returns the host's liveness and a farm counter snapshot;
	// hosts with a debug server configured also probe their own /healthz.
	OpHealth = "health"
	// OpSubmit carries one SessionSpec; the response is held back until
	// the session finishes and carries its result. A dropped connection
	// mid-submit is the coordinator's signal to re-place the spec.
	OpSubmit = "submit"
	// OpDrain asks the host's farm to finish in-flight sessions and
	// refuse new ones; the response waits for the drain to complete.
	OpDrain = "drain"
)

// Request is one coordinator→host control frame.
type Request struct {
	Op string `json:"op"`
	// Spec is the session to run (OpSubmit only).
	Spec *farm.SessionSpec `json:"spec,omitempty"`
}

// Response is one host→coordinator control frame.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Retryable marks a failure as a host-capacity condition (queue
	// full, draining, closed) rather than a property of the spec: the
	// coordinator may re-place the session elsewhere. Deterministic run
	// failures are not retryable — they would fail identically on every
	// host.
	Retryable bool `json:"retryable,omitempty"`
	// Unavailable marks the host as unable to accept sessions now or
	// later (its farm is closed or draining): the coordinator marks it
	// down instead of re-offering it work. Queue-full push-back is
	// Retryable but not Unavailable — that host recovers on its own.
	Unavailable bool           `json:"unavailable,omitempty"`
	Host        *HostInfo      `json:"host,omitempty"`
	Health      *HealthReport  `json:"health,omitempty"`
	Result      *SessionResult `json:"result,omitempty"`
}

// HostInfo identifies one enrolled host.
type HostInfo struct {
	// Name is the operator-chosen host name (default: the control
	// address), the unit of placement and status reporting.
	Name string `json:"name"`
	// FarmNetwork/FarmAddr locate the host farm's mux front door that
	// external boards would dial.
	FarmNetwork string `json:"farm_network"`
	FarmAddr    string `json:"farm_addr"`
	// Workers is the host farm's concurrency bound, reported so
	// operators can see fleet capacity in farmctl status.
	Workers int `json:"workers"`
	// Queue is the host farm's submission-queue capacity. Workers+Queue
	// is the most sessions the coordinator will keep in flight on the
	// host before holding placements back.
	Queue int `json:"queue"`
}

// HealthReport is one host's answer to OpHealth.
type HealthReport struct {
	// Status is "ok", or the failure text when the host's own /healthz
	// probe failed.
	Status string `json:"status"`
	// Farm is the host farm's counter snapshot at report time.
	Farm farm.Snapshot `json:"farm"`
}

// Fingerprint is the virtual-time identity of one run: two runs with
// equal fingerprints behaved identically in simulated time. Wall-clock
// quantities (wall time, retransmit counts) are deliberately excluded —
// they vary run to run without breaking determinism.
type Fingerprint struct {
	Router       router.Stats `json:"router"`
	BoardCycles  uint64       `json:"board_cycles"`
	BoardSWTicks uint64       `json:"board_sw_ticks"`
	SyncEvents   uint64       `json:"sync_events"`
}

// SessionResult is the wire form of a completed session: the
// deterministic fingerprint plus the headline (non-deterministic)
// performance numbers.
type SessionResult struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	Generated   uint64      `json:"generated"`
	Accuracy    float64     `json:"accuracy"`
	WallMS      float64     `json:"wall_ms"`
	Retransmits uint64      `json:"retransmits"`
	Transport   string      `json:"transport"`
	TSync       uint64      `json:"tsync"`
	// Host is the name of the host that ran the session, filled in by
	// the coordinator (the host doesn't know its fleet name is unique).
	Host string `json:"host,omitempty"`
}

// ResultOf projects a router.RunResult onto the wire form.
func ResultOf(res router.RunResult) SessionResult {
	return SessionResult{
		Fingerprint: Fingerprint{
			Router:       res.Router,
			BoardCycles:  res.BoardCycles,
			BoardSWTicks: res.BoardSWTicks,
			SyncEvents:   res.HW.SyncEvents,
		},
		Generated:   res.Generated,
		Accuracy:    res.Accuracy,
		WallMS:      float64(res.Wall.Milliseconds()),
		Retransmits: res.Link.Link.Retransmits,
		Transport:   res.TransportKind.String(),
		TSync:       res.TSync,
	}
}
