package router

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cosim"
)

// runOutcome is the virtual-time fingerprint compared across entry
// points: if two runs agree on these, they are the same simulation.
type runOutcome struct {
	r      Stats
	cycles uint64
	ticks  uint64
	sim    uint64
}

func fingerprint(res RunResult) runOutcome {
	return runOutcome{r: res.Router, cycles: res.BoardCycles, ticks: res.BoardSWTicks, sim: res.SimCycles}
}

// TestRunEntryPointEquivalence is the tombstone of the removed
// RunCoSim(rc) and RunOnTransports(rc, hw, board) wrappers: both
// spellings of a run — WithConfig over a zero Transports value (the old
// RunCoSim) and caller-established transports (the old RunOnTransports)
// — produce bit-identical virtual-time results for the same
// configuration.
func TestRunEntryPointEquivalence(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB.PacketsPerPort = 4
	rc.TSync = 200

	viaRun, err := Run(context.Background(), Transports{}, WithConfig(rc))
	if err != nil {
		t.Fatalf("Run(WithConfig): %v", err)
	}

	hwT, boardT := cosim.NewInProcPair(4096)
	viaTransports, err := Run(context.Background(), Transports{HW: hwT, Board: boardT}, WithConfig(rc))
	if err != nil {
		t.Fatalf("Run(Transports): %v", err)
	}

	if want, got := fingerprint(viaRun), fingerprint(viaTransports); got != want {
		t.Errorf("Run(Transports) diverged from Run(WithConfig):\nwant %+v\ngot  %+v", want, got)
	}
}

// failingSend is a board-side transport whose n-th Send fails.
type failingSend struct {
	cosim.Transport
	n int
}

var errInjectedSend = errors.New("injected send failure")

func (f *failingSend) Send(ch cosim.Channel, m cosim.Msg) error {
	if f.n--; f.n == 0 {
		return errInjectedSend
	}
	return f.Transport.Send(ch, m)
}

// TestRunReportsBoardFailure: when the board's transport fails partway,
// the run returns that board's error, naming its party, within a
// deadline, not the closed link the board left behind.
func TestRunReportsBoardFailure(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB.PacketsPerPort = 4
	rc.TSync = 200
	hwT, boardT := cosim.NewInProcPair(4096)
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), Transports{HW: hwT, Board: &failingSend{Transport: boardT, n: 5}}, WithConfig(rc))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errInjectedSend) || !strings.Contains(err.Error(), `party "board0"`) {
			t.Fatalf("run returned %v, want party \"board0\" failing with %v", err, errInjectedSend)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run still blocked 10 s after the board's transport failed")
	}
}

// TestRunRejectsHalfTransports: a Transports value with exactly one side
// set is a caller bug; Run must fail fast and still release the side it
// was given.
func TestRunRejectsHalfTransports(t *testing.T) {
	hwT, boardT := cosim.NewInProcPair(4)
	defer boardT.Close()
	if _, err := Run(context.Background(), Transports{HW: hwT}); !errors.Is(err, errHalfTransports) {
		t.Fatalf("want errHalfTransports, got %v", err)
	}
	if _, err := hwT.Recv(cosim.ChanInt); err != cosim.ErrClosed {
		t.Fatalf("provided transport not closed after rejection: %v", err)
	}
}

// TestRunContextCancellation: cancelling the context mid-run tears the
// link down, unblocks both sides, and reports the context's cause — on
// a plain in-process run and on an uncapped adaptive run over TCP with
// batching and the session layer, where most boundaries are elided.
func TestRunContextCancellation(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB.PacketsPerPort = 10000 // far more work than the test allows to finish
	rc.TSync = 50
	rc.MaxCycles = 1 << 40
	t.Run("plain", func(t *testing.T) { assertCancels(t, rc) })

	sess := cosim.DefaultSessionConfig()
	rc.Transport = TransportTCP
	rc.Adaptive, rc.Batch, rc.Resilience = true, true, &sess
	t.Run("adaptive-tcp-batch-session", func(t *testing.T) { assertCancels(t, rc) })
}

// assertCancels runs rc, cancels it 5 ms in, and expects the run to
// return the context's cause promptly.
func assertCancels(t *testing.T, rc RunConfig) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()

	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, Transports{}, WithConfig(rc))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled run reported success")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error does not carry the context cause: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run never returned")
	}
}

// TestCanceledFederationReleasesGoroutines: a cancelled run finishes no
// party, so it must shut down the kernels it built itself — the router
// kernel's producer threads and, in-process, the boards' RTOS threads —
// or their goroutines outlive it. Wire boards stop with their links.
func TestCanceledFederationReleasesGoroutines(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB.PacketsPerPort = 10000 // far more work than the test allows to finish
	rc.TSync = 50
	rc.MaxCycles = 1 << 40
	for _, inProc := range []bool{true, false} {
		t.Run(fmt.Sprintf("inproc=%v", inProc), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(5*time.Millisecond, cancel)
			_, err := RunFederation(ctx, FederationConfig{Boards: 2, InProcBoards: inProc}, WithConfig(rc))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run error %v, want one wrapping context.Canceled", err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines outlive the cancelled run", runtime.NumGoroutine()-base)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
