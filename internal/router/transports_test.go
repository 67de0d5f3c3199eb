package router

import (
	"context"
	"testing"
	"time"

	"repro/internal/cosim"
)

func TestCoSimEndToEndUDS(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 500
	rc.Transport = TransportUDS
	res, err := Run(context.Background(), Transports{}, WithConfig(rc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 1.0 {
		t.Fatalf("UDS accuracy %.3f (router %+v)", res.Accuracy, res.Router)
	}
	if res.TransportKind != TransportUDS {
		t.Fatalf("TransportKind = %v, want uds", res.TransportKind)
	}
}

func TestCoSimEndToEndShm(t *testing.T) {
	if !cosim.ShmSupported() {
		t.Skip("shm transport unsupported on this platform")
	}
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 500
	rc.Transport = TransportShm
	res, err := Run(context.Background(), Transports{}, WithConfig(rc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 1.0 {
		t.Fatalf("shm accuracy %.3f (router %+v)", res.Accuracy, res.Router)
	}
	if res.TransportKind != TransportShm {
		t.Fatalf("TransportKind = %v, want shm", res.TransportKind)
	}
}

// TestReportedKindReflectsActualTransport: a run over caller-provided
// transports must report the link actually used, not whatever default
// was left in the config.
func TestReportedKindReflectsActualTransport(t *testing.T) {
	hw, board := cosim.NewInProcPair(4096)
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 500
	rc.Transport = TransportTCP // stale config value; the link is inproc
	res, err := Run(context.Background(), Transports{HW: hw, Board: board}, WithConfig(rc))
	if err != nil {
		t.Fatal(err)
	}
	if res.TransportKind != TransportInProc {
		t.Fatalf("TransportKind = %v, want inproc (the transport actually used)", res.TransportKind)
	}
}

// TestMultiRunReportsInProc is the regression test for the multi-board
// mislabeling bug: a federated run used to echo a stale rc.Transport into
// its result. The reported kind must name the links actually wired —
// in-process boards have none, and wire boards report the kind they
// were dialed over.
func TestMultiRunReportsInProc(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 200
	rc.Transport = TransportTCP // must not leak into the result
	for name, run := range map[string]func() (FederationResult, error){
		"inprocBoards": func() (FederationResult, error) {
			return RunFederation(context.Background(), FederationConfig{Boards: 2, InProcBoards: true}, WithConfig(rc))
		},
		"inprocLinks": func() (FederationResult, error) {
			rc := rc
			rc.Transport = TransportInProc
			return RunFederation(context.Background(), FederationConfig{Boards: 2}, WithConfig(rc))
		},
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.TransportKind != TransportInProc {
			t.Fatalf("%s: multi-board TransportKind = %v, want inproc", name, res.TransportKind)
		}
	}
}

func TestTransportKindStrings(t *testing.T) {
	want := map[TransportKind]string{
		TransportInProc: "inproc",
		TransportTCP:    "tcp",
		TransportUDS:    "uds",
		TransportShm:    "shm",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestValidateAcceptsNewKinds pins Validate's transport switch.
func TestValidateAcceptsNewKinds(t *testing.T) {
	for _, k := range []TransportKind{TransportInProc, TransportTCP, TransportUDS} {
		rc := DefaultRunConfig()
		rc.Transport = k
		if err := rc.Validate(); err != nil {
			t.Fatalf("Validate(%v) = %v", k, err)
		}
	}
	rc := DefaultRunConfig()
	rc.Transport = TransportShm
	err := rc.Validate()
	if cosim.ShmSupported() && err != nil {
		t.Fatalf("Validate(shm) = %v on a supported platform", err)
	}
	if !cosim.ShmSupported() && err == nil {
		t.Fatal("Validate(shm) accepted on an unsupported platform")
	}
	rc.Transport = TransportKind(99)
	if err := rc.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown TransportKind")
	}
}

// TestRunSurvivesLateDuplicateOfFinishAck: with every frame duplicated
// and a link delay, the board's duplicate of its final ack is still
// being sent when the simulator has the first copy. The run must
// succeed: the board is done, and the link may only close under it
// after it returns.
func TestRunSurvivesLateDuplicateOfFinishAck(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 500
	sc := cosim.UniformScenario(7, cosim.FaultProfile{Duplicate: 1})
	sess := cosim.DefaultSessionConfig()
	rc.Chaos = &sc
	rc.Resilience = &sess
	rc.LinkDelay = 200 * time.Microsecond
	for i := 0; i < 5; i++ {
		if _, err := Run(context.Background(), Transports{}, WithConfig(rc)); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}
