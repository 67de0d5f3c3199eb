package cosim

import (
	"net"
	"testing"

	"repro/internal/hdlsim"
)

// TestGarbageOnChannelSurfacesError: a peer that writes junk bytes must
// produce a decode error on Recv, not a hang or a panic.
func TestGarbageOnChannelSurfacesError(t *testing.T) {
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Transport, 1)
	go func() {
		tr, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- tr
	}()
	// A well-formed handshake on all three channels, then garbage on DATA.
	var conns [3]net.Conn
	for ch := 0; ch < 3; ch++ {
		c, err := dialRaw(ln.Addr(), byte(ch), ProtocolVersion)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[ch] = c
	}
	hw, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	defer hw.Close()
	if _, err := conns[ChanData].Write([]byte{0xff, 0xff, 0xff, 0xff, 0x00}); err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Recv(ChanData); err == nil {
		t.Fatal("garbage frame decoded successfully")
	}
}

// TestWrongMessageOnClockChannel: protocol-state errors (a data-write
// arriving on CLOCK where an ack is expected) must surface cleanly.
func TestWrongMessageOnClockChannel(t *testing.T) {
	hwT, boardT := NewInProcPair(8)
	hw := NewHWEndpoint(hwT, SyncAlternating)
	go func() {
		// Misbehaving board: answers the grant with a data-write on CLOCK.
		if _, err := boardT.Recv(ChanClock); err != nil {
			return
		}
		boardT.Send(ChanClock, Msg{Type: MTDataWrite, Addr: 1})
	}()
	if _, err := hw.Step(SimTime(10)); err == nil {
		t.Fatal("wrong CLOCK message type accepted as ack")
	}
	hwT.Close()
}

// TestAckAnnouncesMoreDataThanSent: a count mismatch must not deadlock
// forever when the transport closes underneath.
func TestAckAnnouncesMoreDataThanSent(t *testing.T) {
	hwT, boardT := NewInProcPair(8)
	hw := NewHWEndpoint(hwT, SyncAlternating)
	go func() {
		if _, err := boardT.Recv(ChanClock); err != nil {
			return
		}
		// Claim 2 data messages but send none, then hang up.
		boardT.Send(ChanClock, Msg{Type: MTTimeAck, BoardCycle: 1, DataCount: 2})
		boardT.Close()
	}()
	if _, err := hw.Step(SimTime(10)); err == nil {
		t.Fatal("missing announced data not detected")
	}
}

// TestBoardSeesFinishAfterClose: closing the link mid-wait unblocks the
// board with an error rather than hanging.
func TestBoardSeesFinishAfterClose(t *testing.T) {
	hwT, boardT := NewInProcPair(8)
	_, result := scriptedBoard(t, boardT, nil)
	hwT.Close()
	if r := <-result; r.err == nil || !r.finished {
		t.Fatalf("Serve returned %v after close and finished the party: %v; want an error, finished", r.err, r.finished)
	}
}

// TestUnexpectedDataTypeFromSimulator: the board must reject a read
// request arriving from the simulator side (protocol direction violation).
func TestUnexpectedDataTypeFromSimulator(t *testing.T) {
	hwT, boardT := NewInProcPair(8)
	go func() {
		hwT.Send(ChanData, Msg{Type: MTDataReadReq, Addr: 1, Count: 1})
		hwT.Send(ChanClock, Msg{Type: MTClockGrant, Ticks: 1, DataCount: 1})
	}()
	if err := newBoardSide(boardT).serve(&scriptedParty{}); err == nil {
		t.Fatal("direction-violating DATA message accepted")
	}
	hwT.Close()
}

// TestHWEndpointRejectsWrongOutboundKind: the simulator side can only
// send writes and read responses on DATA.
func TestHWEndpointRejectsWrongOutboundKind(t *testing.T) {
	hwT, _ := NewInProcPair(8)
	hw := NewHWEndpoint(hwT, SyncAlternating)
	err := hw.Send(hdlsim.DataMsg{Kind: hdlsim.DataReadReq, Addr: 1, Count: 1})
	if err == nil {
		t.Fatal("simulator-side read request accepted")
	}
	hwT.Close()
}

// TestBoardSideRejectsWrongOutboundKind: the board side can only send
// writes and read requests, and a refused event is not counted.
func TestBoardSideRejectsWrongOutboundKind(t *testing.T) {
	_, boardT := NewInProcPair(8)
	be := newBoardSide(boardT)
	for _, d := range []hdlsim.DataMsg{
		{Kind: hdlsim.DataInterrupt, IRQ: 3},
		{Kind: hdlsim.DataReadResp, Addr: 1, Words: []uint32{1}},
	} {
		if err := be.Send(d); err == nil {
			t.Errorf("board-side %v accepted", d.Kind)
		}
	}
	if m := be.Metrics(); m.DataSent+m.IntSent+m.BytesSent != 0 || be.dataSent+be.intSent != 0 {
		t.Fatalf("refused sends were counted: %+v", m)
	}
	boardT.Close()
}

// TestDrainRejectsMisplacedFrames: a frame on the wrong channel, or of a
// kind its sender cannot send, fails the drain on either side.
func TestDrainRejectsMisplacedFrames(t *testing.T) {
	for _, tc := range []struct {
		name string
		ch   Channel
		m    Msg
	}{
		{"read response from the board", ChanData, Msg{Type: MTDataReadResp, Addr: 1, Words: []uint32{1}}},
		{"interrupt on DATA", ChanData, Msg{Type: MTInterrupt, IRQ: 3}},
	} {
		hwT, boardT := NewInProcPair(8)
		hw := NewHWEndpoint(hwT, SyncAlternating)
		boardT.Send(tc.ch, tc.m)
		boardT.Send(ChanClock, Msg{Type: MTTimeAck, DataCount: 1})
		if _, err := hw.Step(1); err == nil {
			t.Errorf("hw side accepted %s", tc.name)
		}
		hwT.Close()
	}
	hwT, boardT := NewInProcPair(8)
	hwT.Send(ChanInt, Msg{Type: MTDataWrite, Addr: 1, Words: []uint32{1}})
	hwT.Send(ChanClock, Msg{Type: MTClockGrant, Ticks: 1, IntCount: 1})
	if err := newBoardSide(boardT).serve(&scriptedParty{}); err == nil {
		t.Error("board side accepted a write on INT")
	}
	hwT.Close()
}

// TestDelayTransportPreservesSemantics: the latency wrapper must not
// reorder or drop messages.
func TestDelayTransportPreservesSemantics(t *testing.T) {
	a, b := NewInProcPair(64)
	da := NewDelayTransport(a, 0) // zero delay: pure pass-through
	for i := 0; i < 20; i++ {
		if err := da.Send(ChanData, Msg{Type: MTDataWrite, Addr: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		m, err := b.Recv(ChanData)
		if err != nil || m.Addr != uint32(i) {
			t.Fatalf("message %d: %+v %v", i, m, err)
		}
	}
	if _, ok, err := da.TryRecv(ChanData); ok || err != nil {
		t.Fatalf("TryRecv through wrapper: %v %v", ok, err)
	}
	if err := da.Close(); err != nil {
		t.Fatal(err)
	}
}
