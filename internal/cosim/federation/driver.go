package federation

import (
	"context"

	"repro/internal/cosim"
	"repro/internal/hdlsim"
)

// DriverSimulate is the paper's driver_simulate (§5.2) as a two-party
// federation: the kernel s, clocked by clk, is the eager party and board
// the granted one — a *board.Board in-process, or the HWEndpoint of a
// board behind a wire — with one link each way that routes every address
// (a window ends one word short of 2³², so 0xFFFFFFFF stays unmapped)
// and, towards the board, every interrupt line. Per clock
// cycle the kernel (1) applies the board's DATA, (2) runs a standard
// simulation cycle and (3) checks its interrupt lines; the schedule
// grants the board its virtual ticks and finishes it at the end. The
// kernel's thread goroutines are released before it returns, whether the
// run succeeded or failed; a failed run does not finish the board. The
// returned stats are the kernel's, with the sync fields from the
// manager's Stats.
func DriverSimulate(s *hdlsim.Simulator, clk *hdlsim.Clock, board cosim.Federate, sched Schedule) (hdlsim.DriverStats, error) {
	dev, err := cosim.NewSimFederate(s, clk)
	if err != nil {
		return hdlsim.DriverStats{}, err
	}
	irqs := make([]uint8, 256)
	for i := range irqs {
		irqs[i] = uint8(i)
	}
	tm, err := New(Config{
		Parties: []Party{{Name: "hw", Fed: dev, Eager: true}, {Name: "board", Fed: board}},
		Links: []Link{
			{From: 0, To: 1, Size: ^uint32(0), IRQs: irqs},
			{From: 1, To: 0, Size: ^uint32(0)},
		},
		Schedule: sched,
	})
	if err != nil {
		return hdlsim.DriverStats{}, err
	}
	fst, err := tm.Run(context.Background())
	if err != nil {
		// A failed run finishes no party: release the kernel's threads.
		s.Shutdown()
	}
	st := dev.Stats()
	st.SyncEvents, st.SyncsElided, st.LastBoardCy = fst.Syncs, fst.Elided, fst.LastBoardCy
	return st, err
}
