package cosim

import (
	"time"

	"repro/internal/obs"
)

// Metric names published by the cosim layer. Endpoint metrics carry a
// side label ("hw" or "board"); message counters add chan and dir.
const (
	// MetricSyncRendezvous is the per-quantum CLOCK rendezvous latency
	// histogram: the wall-clock time one side spent blocked waiting for
	// its peer at a quantum boundary.
	MetricSyncRendezvous = "cosim_sync_rendezvous_seconds"
	// MetricSyncEvents counts CLOCK rendezvous performed.
	MetricSyncEvents = "cosim_sync_events_total"
	// MetricTicksGranted counts virtual ticks granted (hw) / received
	// (board).
	MetricTicksGranted = "cosim_ticks_granted_total"
	// MetricMsgs counts protocol messages by side, chan (data|int) and
	// dir (sent|recv).
	MetricMsgs = "cosim_msgs_total"
	// MetricBytesSent counts wire bytes sent (frames included).
	MetricBytesSent = "cosim_bytes_sent_total"
)

// live is the optional set of hot-path instruments of one endpoint. A
// nil *live disables publication at the cost of one pointer test per
// event, so endpoints without a registry pay nothing else.
type live struct {
	syncLat   *obs.Histogram
	syncs     *obs.Counter
	ticks     *obs.Counter
	dataSent  *obs.Counter
	dataRecv  *obs.Counter
	intSent   *obs.Counter
	intRecv   *obs.Counter
	bytesSent *obs.Counter
}

func newLive(reg *obs.Registry, side string) *live {
	return &live{
		syncLat:   reg.Histogram(obs.Name(MetricSyncRendezvous, "side", side), nil),
		syncs:     reg.Counter(obs.Name(MetricSyncEvents, "side", side)),
		ticks:     reg.Counter(obs.Name(MetricTicksGranted, "side", side)),
		dataSent:  reg.Counter(obs.Name(MetricMsgs, "side", side, "chan", "data", "dir", "sent")),
		dataRecv:  reg.Counter(obs.Name(MetricMsgs, "side", side, "chan", "data", "dir", "recv")),
		intSent:   reg.Counter(obs.Name(MetricMsgs, "side", side, "chan", "int", "dir", "sent")),
		intRecv:   reg.Counter(obs.Name(MetricMsgs, "side", side, "chan", "int", "dir", "recv")),
		bytesSent: reg.Counter(obs.Name(MetricBytesSent, "side", side)),
	}
}

func (l *live) observeSync(wait time.Duration) {
	if l != nil {
		l.syncLat.ObserveDuration(wait)
		l.syncs.Inc()
	}
}

func (l *live) addTicks(n uint64) {
	if l != nil {
		l.ticks.Add(n)
	}
}

func (l *live) incDataSent() {
	if l != nil {
		l.dataSent.Inc()
	}
}

func (l *live) incDataRecv() {
	if l != nil {
		l.dataRecv.Inc()
	}
}

func (l *live) incIntSent() {
	if l != nil {
		l.intSent.Inc()
	}
}

func (l *live) incIntRecv() {
	if l != nil {
		l.intRecv.Inc()
	}
}

func (l *live) addBytes(n uint64) {
	if l != nil {
		l.bytesSent.Add(n)
	}
}

// Instrumentable is the single instrumentation hook shared by endpoints,
// transport layers and the farm: anything that can publish its counters
// into a registry implements it. Endpoint Observe walks the transport
// stack (via Unwrap) and invokes it on every layer that provides it, so
// a new decorator becomes observable by implementing this interface —
// no endpoint or call-site changes.
type Instrumentable interface {
	Observe(reg *obs.Registry)
}

// sideSetter is the optional companion of Instrumentable: a layer that
// labels its metrics with the link side implements it to receive the
// side ("hw" / "board") before Observe is called.
type sideSetter interface {
	setObserveSide(side string)
}

// observeTransportStack walks the wrapper chain and publishes the
// counters of every layer that implements Instrumentable, stamping the
// side label on layers that accept one.
func observeTransportStack(reg *obs.Registry, tr Transport, side string) {
	for t := tr; t != nil; {
		if ss, ok := t.(sideSetter); ok {
			ss.setObserveSide(side)
		}
		if in, ok := t.(Instrumentable); ok {
			in.Observe(reg)
		}
		u, ok := t.(Unwrapper)
		if !ok {
			return
		}
		t = u.Unwrap()
	}
}

// setObserveSide implements sideSetter.
func (s *SessionTransport) setObserveSide(side string) { s.obsSide = side }

// Observe implements Instrumentable: it registers scrape-time readers
// over the session's resilience counters, so a scrape harvests them
// incrementally from the live atomics instead of waiting for the
// post-run Metrics harvest.
func (s *SessionTransport) Observe(reg *obs.Registry) {
	side := s.obsSide
	if side == "" {
		side = "link"
	}
	name := func(base string) string { return obs.Name(base, "side", side) }
	reg.CounterFunc(name("cosim_session_retransmits_total"), s.retransmits.Load)
	reg.CounterFunc(name("cosim_session_reconnects_total"), s.reconnects.Load)
	reg.CounterFunc(name("cosim_session_heartbeats_sent_total"), s.hbSent.Load)
	reg.CounterFunc(name("cosim_session_heartbeats_missed_total"), s.hbMissed.Load)
	reg.CounterFunc(name("cosim_session_dups_dropped_total"), s.dupsDropped.Load)
	reg.CounterFunc(name("cosim_session_crc_dropped_total"), s.crcDropped.Load)
	reg.CounterFunc(name("cosim_session_gaps_seen_total"), s.gapsSeen.Load)
	reg.CounterFunc(name("cosim_session_aliens_dropped_total"), s.aliensDropped.Load)
	reg.CounterFunc(name("cosim_session_frames_injured_total"), func() uint64 {
		return s.LinkStats().FramesInjured
	})
	reg.GaugeFunc(name("cosim_session_unacked_frames"), func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for ch := range s.send {
			n += len(s.send[ch].unacked)
		}
		return float64(n)
	})
	reg.GaugeFunc(name("cosim_session_reconnecting"), func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.reconnecting {
			return 1
		}
		return 0
	})
}
