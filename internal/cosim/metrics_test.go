package cosim

import (
	"testing"
	"time"

	"repro/internal/hdlsim"
)

// TestStopClockWithoutStart: StopClock before Start must not record a
// garbage (near-epoch) duration.
func TestStopClockWithoutStart(t *testing.T) {
	var m Metrics
	m.StopClock()
	if m.Wall != 0 {
		t.Fatalf("Wall = %v after StopClock without Start, want 0", m.Wall)
	}
	m.Start()
	time.Sleep(time.Millisecond)
	m.StopClock()
	if m.Wall <= 0 {
		t.Fatalf("Wall = %v after Start+StopClock, want > 0", m.Wall)
	}
}

// TestEndpointWallClockRecorded: both endpoints pair Start (constructor)
// with StopClock (shutdown), so Wall is valid after any complete run —
// including the HW side's early-error path.
func TestEndpointWallClockRecorded(t *testing.T) {
	hwT, boardT := NewInProcPair(64)
	hw := NewHWEndpoint(hwT, SyncAlternating)
	board, result := scriptedBoard(t, boardT, nil)

	for q := 1; q <= 3; q++ {
		if _, err := hw.Step(SimTime(10 * q)); err != nil {
			t.Fatal(err)
		}
	}
	if err := hw.Finish(30); err != nil {
		t.Fatal(err)
	}
	if r := <-result; r.err != nil {
		t.Fatal(r.err)
	}
	if hw.Metrics().Wall <= 0 {
		t.Fatalf("HW Wall = %v, want > 0", hw.Metrics().Wall)
	}
	if board.Metrics().Wall <= 0 {
		t.Fatalf("board Wall = %v, want > 0", board.Metrics().Wall)
	}
}

// TestHWWallClockRecordedOnError: Finish stamps Wall even when the board
// never acknowledges and the shutdown times out.
func TestHWWallClockRecordedOnError(t *testing.T) {
	hwT, _ := NewInProcPair(8)
	defer hwT.Close()
	hw := NewHWEndpoint(hwT, SyncAlternating)
	hw.AckTimeout = 10 * time.Millisecond
	if err := hw.Finish(5); err == nil {
		t.Fatal("Finish succeeded with no board attached")
	}
	if hw.Metrics().Wall <= 0 {
		t.Fatalf("Wall = %v after failed Finish, want > 0", hw.Metrics().Wall)
	}
}

// TestMetricsHarvestLink: session- and chaos-wrapped transports surface
// their counters through the endpoint metrics.
func TestMetricsHarvestLink(t *testing.T) {
	chaos := UniformScenario(99, FaultProfile{Drop: 1})
	a, b := NewInProcPair(64)
	defer b.Close()
	ct := NewChaosTransport(a, chaos)
	hw := NewHWEndpoint(ct, SyncAlternating)
	_ = hw.Send(hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: 1, Words: []uint32{1}})
	if got := hw.Metrics().Link.FramesInjured; got == 0 {
		t.Fatalf("FramesInjured = %d after a dropped frame, want > 0", got)
	}
}
