package federation

import (
	"slices"
	"testing"

	"repro/internal/cosim"
	"repro/internal/hdlsim"
	"repro/internal/sim"
)

// scriptedBoard is a served board whose clock advances one cycle per
// granted tick and that promises nothing: it records every grant's
// ticks and, on the grant ending at postAt (0 = never), posts one write
// of 0xbeef to address 0x10.
type scriptedBoard struct {
	cur    cosim.SimTime
	postAt cosim.SimTime
	ticks  []uint64
	out    []hdlsim.DataMsg
}

func (b *scriptedBoard) Step(until cosim.SimTime) (cosim.SimTime, error) {
	b.ticks = append(b.ticks, uint64(until-b.cur))
	b.cur = until
	if until == b.postAt {
		b.out = append(b.out, hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: 0x10, Words: []uint32{0xbeef}})
	}
	return until, nil
}

func (b *scriptedBoard) Exchange([]hdlsim.DataMsg) ([]hdlsim.DataMsg, error) {
	out := b.out
	b.out = nil
	return out, nil
}

func (b *scriptedBoard) Lookahead() uint64          { return cosim.NoLookahead }
func (b *scriptedBoard) Done() bool                 { return false }
func (b *scriptedBoard) Finish(cosim.SimTime) error { return nil }

// runDriver runs DriverSimulate over an in-process link to a scripted
// board, on a kernel with one clock and a driver_in window at 0x10.
func runDriver(t *testing.T, sched Schedule, postAt uint64) (hdlsim.DriverStats, []uint64, []hdlsim.RegWrite, error) {
	t.Helper()
	s := hdlsim.NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	din := s.NewDriverIn("cmd", 0x10, 1)
	var got []hdlsim.RegWrite
	s.DriverProcess("drv", func() {
		for w, ok := din.Pop(); ok; w, ok = din.Pop() {
			got = append(got, w)
		}
	}, din)
	hwT, boardT := cosim.NewInProcPair(64)
	b := &scriptedBoard{postAt: cosim.SimTime(postAt)}
	served := make(chan error, 1)
	go func() { served <- cosim.Serve(boardT, b, nil, "board") }()
	st, err := DriverSimulate(s, clk, cosim.NewHWEndpoint(hwT, cosim.SyncAlternating), sched)
	hwT.Close()
	<-served
	return st, b.ticks, got, err
}

// TestDriverSyncCadence: the two-party run grants the board every TSync
// cycles and settles the remainder with a final partial grant — 20
// cycles at TSync=7 are grants of 7, 7 and 6 — and reports the board
// cycle acknowledged at the last one. A write the board posts with its
// second acknowledgement reaches the kernel's driver_in port.
func TestDriverSyncCadence(t *testing.T) {
	st, grants, got, err := runDriver(t, Schedule{TSync: 7, TotalCycles: 20}, 14)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{7, 7, 6}; !slices.Equal(grants, want) {
		t.Fatalf("grants %v, want %v", grants, want)
	}
	if st.Cycles != 20 || st.SyncEvents != 3 || st.SyncsElided != 0 || st.LastBoardCy != 20 {
		t.Fatalf("stats %+v", st)
	}
	if len(got) != 1 || got[0] != (hdlsim.RegWrite{Addr: 0x10, Val: 0xbeef}) || st.DataIn != 1 {
		t.Fatalf("driver_in received %v (DataIn %d), want the board's one write", got, st.DataIn)
	}
}

// TestDriverZeroTSyncRejected: a zero synchronisation interval is refused
// before any grant reaches the board.
func TestDriverZeroTSyncRejected(t *testing.T) {
	_, grants, _, err := runDriver(t, Schedule{TSync: 0, TotalCycles: 1}, 0)
	if err == nil {
		t.Fatal("TSync=0 accepted")
	}
	if len(grants) != 0 {
		t.Fatalf("board granted %v on a rejected run", grants)
	}
}

// TestDriverStopEarly: StopEarly ends the run at the first boundary where
// it reports true, after that boundary's grant.
func TestDriverStopEarly(t *testing.T) {
	stop := false
	st, grants, _, err := runDriver(t, Schedule{
		TSync:       5,
		TotalCycles: 1000,
		StopEarly: func() bool {
			stop = !stop
			return stop // stops at the first boundary
		},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 5 || !slices.Equal(grants, []uint64{5}) {
		t.Fatalf("ran %d cycles with grants %v, want 5 and [5] (stop at the first boundary)", st.Cycles, grants)
	}
}
