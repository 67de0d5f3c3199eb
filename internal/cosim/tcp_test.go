package cosim

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"
)

// bareTCPPeer accepts one link whose board side is three raw
// connections, so a test can write any byte sequence the receiving
// tcpTransport must cope with.
func bareTCPPeer(t *testing.T) (hw Transport, conns [numChannels]net.Conn) {
	t.Helper()
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan error, 1)
	go func() {
		var err error
		hw, err = ln.Accept()
		accepted <- err
	}()
	for ch := Channel(0); ch < numChannels; ch++ {
		if conns[ch], err = dialRaw(ln.Addr(), byte(ch), ProtocolVersion); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		hw.Close()
		for _, c := range conns {
			c.Close()
		}
	})
	return hw, conns
}

func frameBytes(t *testing.T, m Msg) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTCPClockGrantBehindBulkTraffic: with the receiver already blocked
// on CLOCK, a sender writes more DATA and INT traffic than the socket
// buffers hold, then the grant. The DATA and INT readers must drain it
// for the grant to be written at all; afterwards every frame is there,
// in order.
func TestTCPClockGrantBehindBulkTraffic(t *testing.T) {
	hw, conns := bareTCPPeer(t)
	type result struct {
		m   Msg
		err error
	}
	granted := make(chan result, 1)
	go func() {
		m, err := hw.Recv(ChanClock)
		granted <- result{m, err}
	}()
	time.Sleep(10 * time.Millisecond) // let the receiver block on CLOCK

	const small = 500
	big := make([]uint32, MaxWords)
	for i := range big {
		big[i] = uint32(i)
	}
	sent := make(chan error, 1)
	go func() {
		for k := uint32(0); k < 2; k++ {
			if err := (&Msg{Type: MTDataWrite, Addr: k, Words: big}).Encode(conns[ChanData]); err != nil {
				sent <- err
				return
			}
		}
		for i := uint32(0); i < small; i++ {
			if err := (&Msg{Type: MTDataWrite, Addr: 2 + i, Words: []uint32{i}}).Encode(conns[ChanData]); err != nil {
				sent <- err
				return
			}
			if err := (&Msg{Type: MTInterrupt, IRQ: uint8(i)}).Encode(conns[ChanInt]); err != nil {
				sent <- err
				return
			}
		}
		sent <- (&Msg{Type: MTClockGrant, Ticks: 9, DataCount: 2 + small, IntCount: small}).Encode(conns[ChanClock])
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sender blocked: DATA/INT not drained while the receiver waits on CLOCK")
	}
	r := <-granted
	if r.err != nil || r.m.Type != MTClockGrant || r.m.Ticks != 9 {
		t.Fatalf("grant = %+v, %v", r.m, r.err)
	}
	for i := uint32(0); i < 2+small; i++ {
		m, err := hw.Recv(ChanData)
		if err != nil {
			t.Fatal(err)
		}
		if m.Addr != i {
			t.Fatalf("DATA frame %d carries addr %d", i, m.Addr)
		}
		if i < 2 && (len(m.Words) != MaxWords || m.Words[MaxWords-1] != MaxWords-1) {
			t.Fatalf("bulk DATA frame %d arrived with %d words", i, len(m.Words))
		}
	}
	for i := 0; i < small; i++ {
		m, err := hw.Recv(ChanInt)
		if err != nil || m.IRQ != uint8(i) {
			t.Fatalf("INT frame %d = %+v, %v", i, m, err)
		}
	}
}

// TestTCPClockSplitFrameSurvivesTimeout: a CLOCK frame cut by a receive
// deadline, in its header or in its body, comes back intact once the
// rest arrives, and so does the frame after it.
func TestTCPClockSplitFrameSurvivesTimeout(t *testing.T) {
	grant := Msg{Type: MTClockGrant, Ticks: 5, HWCycle: 77, Lookahead: 3, DataCount: 2, IntCount: 1}
	finish := Msg{Type: MTFinish, HWCycle: 99}
	wire := frameBytes(t, grant)
	for _, cut := range []int{2, len(wire) / 2} {
		hw, conns := bareTCPPeer(t)
		if _, err := conns[ChanClock].Write(wire[:cut]); err != nil {
			t.Fatal(err)
		}
		if _, err := RecvTimeout(hw, ChanClock, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("cut %d: RecvTimeout on half a grant = %v, want ErrTimeout", cut, err)
		}
		rest := append(append([]byte(nil), wire[cut:]...), frameBytes(t, finish)...)
		if _, err := conns[ChanClock].Write(rest); err != nil {
			t.Fatal(err)
		}
		got, err := hw.Recv(ChanClock)
		if err != nil || !reflect.DeepEqual(got, grant) {
			t.Fatalf("cut %d: grant = %+v, %v; want %+v", cut, got, err, grant)
		}
		got, err = hw.Recv(ChanClock)
		if err != nil || !reflect.DeepEqual(got, finish) {
			t.Fatalf("cut %d: next frame = %+v, %v; want %+v", cut, got, err, finish)
		}
	}
}

// TestTCPClockErrorIsSticky: a frame no encoder produces fails the CLOCK
// channel for good.
func TestTCPClockErrorIsSticky(t *testing.T) {
	hw, conns := bareTCPPeer(t)
	if _, err := conns[ChanClock].Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	_, err := hw.Recv(ChanClock)
	if err == nil {
		t.Fatal("zero-length frame accepted")
	}
	if _, err := conns[ChanClock].Write(frameBytes(t, Msg{Type: MTFinish})); err != nil {
		t.Fatal(err)
	}
	if _, err2 := RecvTimeout(hw, ChanClock, time.Second); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("after a bad frame: %v, want %v again", err2, err)
	}
}

// TestTCPTryRecvEmptyClock: TryRecv on CLOCK returns at once when
// nothing has arrived, then finds a frame once one has, leaves no
// deadline behind for a blocking Recv, and a local Close unblocks a
// caller reading CLOCK.
func TestTCPTryRecvEmptyClock(t *testing.T) {
	hw, conns := bareTCPPeer(t)
	done := make(chan error, 1)
	go func() {
		_, ok, err := hw.TryRecv(ChanClock)
		if ok {
			err = errors.New("TryRecv on an empty CLOCK channel returned a message")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TryRecv on an empty CLOCK channel blocked")
	}

	// A deadline left by an earlier timed receive must not stop TryRecv
	// from reading.
	if _, err := RecvTimeout(hw, ChanClock, time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("RecvTimeout = %v, want ErrTimeout", err)
	}
	want := Msg{Type: MTTimeAck, BoardCycle: 12, SWTick: 4}
	if _, err := conns[ChanClock].Write(frameBytes(t, want)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, ok, err := hw.TryRecv(ChanClock)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if !reflect.DeepEqual(m, want) {
				t.Fatalf("TryRecv = %+v, want %+v", m, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("TryRecv never saw the frame")
		}
		time.Sleep(time.Millisecond)
	}

	// Nor may the deadline TryRecv polls with cut a blocking Recv short.
	frame := frameBytes(t, want)
	go func() {
		time.Sleep(20 * time.Millisecond)
		conns[ChanClock].Write(frame)
	}()
	if m, err := hw.Recv(ChanClock); err != nil || !reflect.DeepEqual(m, want) {
		t.Fatalf("Recv after TryRecv = %+v, %v; want %+v", m, err, want)
	}

	go func() {
		_, err := hw.Recv(ChanClock)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	hw.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil error after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock a CLOCK reader")
	}
}
