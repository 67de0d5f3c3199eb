package cosim

import "time"

// Metrics aggregates link-level counters for one endpoint. All counters
// are owned by the endpoint's goroutine; read them after the run.
type Metrics struct {
	SyncEvents   uint64        // CLOCK grants issued (simulator side)
	TicksGranted uint64        // virtual ticks granted (simulator side)
	DataSent     uint64        // DATA messages sent
	DataRecv     uint64        // DATA messages received
	IntSent      uint64        // INT messages sent
	IntRecv      uint64        // INT messages received
	BytesSent    uint64        // wire bytes sent (frames included)
	SyncWait     time.Duration // wall-clock time blocked in CLOCK rendezvous
	WallStart    time.Time     // set by Start
	Wall         time.Duration // set by StopClock

	// Link holds the resilience counters (retransmits, heartbeats
	// missed, frames injured by chaos, …) harvested from the
	// endpoint's transport when it is session- or chaos-wrapped.
	Link LinkStats
}

// Start stamps the beginning of the measured region. Both endpoint
// constructors call it, so StopClock always has a reference point.
func (m *Metrics) Start() { m.WallStart = time.Now() } //cosim:wallclock -- wall-clock run metric, reported alongside simulated time

// StopClock records the elapsed wall-clock time since Start. Without a
// prior Start it leaves Wall untouched rather than recording garbage.
func (m *Metrics) StopClock() {
	if !m.WallStart.IsZero() {
		m.Wall = time.Since(m.WallStart) //cosim:wallclock -- wall-clock run metric, reported alongside simulated time
	}
}

// harvestLink copies resilience counters from the first transport in
// the wrapper chain that exposes them. Walking through Unwrap matters:
// a TraceTransport (or any other decorator) around a SessionTransport
// must not silently zero the link counters.
func (m *Metrics) harvestLink(tr Transport) {
	for t := tr; t != nil; {
		if ls, ok := t.(linkStatser); ok {
			m.Link = ls.LinkStats()
			return
		}
		u, ok := t.(Unwrapper)
		if !ok {
			return
		}
		t = u.Unwrap()
	}
}
