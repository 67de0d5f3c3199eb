package cosim

import (
	"io"
	"strings"
	"testing"

	"repro/internal/hdlsim"
	"repro/internal/obs"
)

// TestHarvestLinkWalksWrappers is the regression test for the
// wrapper-swallows-link-stats bug: a TraceTransport (or any decorator)
// around a SessionTransport must not zero Metrics.Link, because the
// harvest walks the Unwrap chain to the first stats-bearing layer.
func TestHarvestLinkWalksWrappers(t *testing.T) {
	a, b := NewInProcPair(8)
	sa := NewSessionTransport(a, SessionConfig{})
	sb := NewSessionTransport(b, SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	sa.retransmits.Add(3)
	sa.dupsDropped.Add(2)

	var direct Metrics
	direct.harvestLink(sa)
	if direct.Link.Retransmits != 3 || direct.Link.DupsDropped != 2 {
		t.Fatalf("direct harvest lost counters: %+v", direct.Link)
	}

	traced := NewTraceTransport(sa, io.Discard)
	var one Metrics
	one.harvestLink(traced)
	if one.Link.Retransmits != 3 || one.Link.DupsDropped != 2 {
		t.Fatalf("trace-wrapped harvest lost counters: %+v", one.Link)
	}

	// Two decorator layers deep.
	var two Metrics
	two.harvestLink(NewDelayTransport(traced, 0))
	if two.Link.Retransmits != 3 || two.Link.DupsDropped != 2 {
		t.Fatalf("delay+trace-wrapped harvest lost counters: %+v", two.Link)
	}

	// A chain with no stats-bearing layer harvests nothing and leaves
	// Link zero.
	var none Metrics
	none.harvestLink(NewTraceTransport(b2t(t), io.Discard))
	if none.Link != (LinkStats{}) {
		t.Fatalf("statless chain produced counters: %+v", none.Link)
	}
}

// b2t returns a fresh plain transport for the no-stats case.
func b2t(t *testing.T) Transport {
	t.Helper()
	x, _ := NewInProcPair(1)
	return x
}

// TestEndpointObservePublishesLive runs a small co-simulation exchange
// against a served board and checks that the obs registry sees rendezvous histogram
// counts and channel counters advance.
func TestEndpointObservePublishesLive(t *testing.T) {
	hwT, boardT := NewInProcPair(64)
	defer hwT.Close()
	defer boardT.Close()

	reg := obs.NewRegistry()
	hw := NewHWEndpoint(hwT, SyncAlternating)
	hw.Observe(reg)
	boardDone := make(chan error, 1)
	go func() {
		boardDone <- Serve(boardT, &scriptedParty{post: func(grant, SimTime) []hdlsim.DataMsg {
			return []hdlsim.DataMsg{{Kind: hdlsim.DataWrite, Addr: 0x10, Words: []uint32{1, 2}}}
		}}, reg, "board")
	}()

	const quanta = 5
	for i := uint64(1); i <= quanta; i++ {
		if _, err := hw.Step(SimTime(i * 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := hw.Finish(quanta * 100); err != nil {
		t.Fatal(err)
	}
	if err := <-boardDone; err != nil {
		t.Fatal(err)
	}

	hwHist := reg.Histogram(obs.Name(MetricSyncRendezvous, "side", "hw"), nil)
	if hwHist.Count() != quanta {
		t.Fatalf("hw rendezvous count = %d, want %d", hwHist.Count(), quanta)
	}
	boardHist := reg.Histogram(obs.Name(MetricSyncRendezvous, "side", "board"), nil)
	if boardHist.Count() != quanta {
		t.Fatalf("board rendezvous count = %d, want %d", boardHist.Count(), quanta)
	}
	sent := reg.Counter(obs.Name(MetricMsgs, "side", "board", "chan", "data", "dir", "sent"))
	if sent.Value() != quanta {
		t.Fatalf("board data sent = %d, want %d", sent.Value(), quanta)
	}
	recv := reg.Counter(obs.Name(MetricMsgs, "side", "hw", "chan", "data", "dir", "recv"))
	if recv.Value() != quanta {
		t.Fatalf("hw data recv = %d, want %d", recv.Value(), quanta)
	}
	if got := reg.Counter(obs.Name(MetricBytesSent, "side", "hw")).Value(); got == 0 {
		t.Fatal("hw bytes sent not published")
	}
	text := reg.String()
	if !strings.Contains(text, `cosim_sync_rendezvous_seconds_count{side="hw"} 5`) {
		t.Fatalf("exposition missing hw rendezvous count:\n%s", text)
	}
}

// TestSessionObserveIncremental checks that session resilience counters
// are visible through the registry while the session is alive, without
// any endpoint-level harvest.
func TestSessionObserveIncremental(t *testing.T) {
	a, b := NewInProcPair(8)
	sa := NewSessionTransport(a, SessionConfig{})
	sb := NewSessionTransport(b, SessionConfig{})
	defer sa.Close()
	defer sb.Close()

	reg := obs.NewRegistry()
	// Observe through a decorator: the stack walk must find the session.
	observeTransportStack(reg, NewTraceTransport(sa, io.Discard), "hw")

	sa.retransmits.Add(7)
	snap := reg.Snapshot()
	if got := snap.Counters[obs.Name("cosim_session_retransmits_total", "side", "hw")]; got != 7 {
		t.Fatalf("live retransmits = %d, want 7", got)
	}
	if err := sa.Send(ChanData, Msg{Type: MTDataWrite, Addr: 1, Words: []uint32{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Recv(ChanData); err != nil {
		t.Fatal(err)
	}
	// The frame may be acked (and pruned) at any moment; just read the
	// gauge to prove it is wired and non-negative.
	name := obs.Name("cosim_session_unacked_frames", "side", "hw")
	if _, ok := reg.Snapshot().Gauges[name]; !ok {
		t.Fatalf("unacked gauge %q not registered", name)
	}
}
