package cosim

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

func udsPath(t *testing.T) string {
	t.Helper()
	// Unix socket paths are length-limited (~104 bytes); keep them short.
	return filepath.Join(t.TempDir(), "s")
}

func TestUDSTransportConformance(t *testing.T) {
	ln, err := ListenUDS(udsPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if ln.Network() != "unix" {
		t.Fatalf("Network() = %q, want unix", ln.Network())
	}
	var hw Transport
	accepted := make(chan error, 1)
	go func() {
		var err error
		hw, err = ln.Accept()
		accepted <- err
	}()
	board, err := DialUDS(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	if got := BaseTransportName(board); got != "unix" {
		t.Fatalf("BaseTransportName = %q, want unix", got)
	}
	exerciseTransport(t, hw, board)
}

// TestUDSMuxSession proves the mux attach handshake is transport-agnostic:
// the same Expect/DialSession rendezvous the farm uses over TCP works
// unchanged over a unix listener.
func TestUDSMuxSession(t *testing.T) {
	ln, err := ListenMuxUDS(udsPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if ln.Network() != "unix" {
		t.Fatalf("Network() = %q, want unix", ln.Network())
	}

	const sessionID = 42
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Register the session before dialing: an attach for an unknown ID is
	// rejected, so Expect must happen-before the dial (the farm follows
	// the same order).
	p, err := ln.Expect(sessionID)
	if err != nil {
		t.Fatal(err)
	}
	hwc := make(chan Transport, 1)
	errc := make(chan error, 1)
	go func() {
		tr, err := p.Accept(ctx)
		hwc <- tr
		errc <- err
	}()
	board, err := DialUDSSession(ln.Addr(), sessionID)
	if err != nil {
		t.Fatal(err)
	}
	hw := <-hwc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	exerciseTransport(t, hw, board)
}

// TestUDSMuxRejectsUnknownSession mirrors the TCP rejection contract.
func TestUDSMuxRejectsUnknownSession(t *testing.T) {
	ln, err := ListenMuxUDS(udsPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := DialUDSSession(ln.Addr(), 999); err == nil {
		t.Fatal("attach to unregistered session succeeded")
	}
}
