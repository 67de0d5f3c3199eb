package cosim

import (
	"errors"
	"testing"
	"time"
)

func TestRecvTimeoutInProc(t *testing.T) {
	a, b := NewInProcPair(8)
	defer a.Close()
	// Nothing queued: times out.
	start := time.Now()
	if _, err := RecvTimeout(a, ChanData, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout wildly overshot")
	}
	// Queued message returned immediately.
	if err := b.Send(ChanData, Msg{Type: MTDataWrite, Addr: 9}); err != nil {
		t.Fatal(err)
	}
	m, err := RecvTimeout(a, ChanData, time.Second)
	if err != nil || m.Addr != 9 {
		t.Fatalf("%+v %v", m, err)
	}
	// d ≤ 0 degrades to blocking Recv: verify with a queued message.
	b.Send(ChanData, Msg{Type: MTDataWrite, Addr: 10})
	if m, err := RecvTimeout(a, ChanData, 0); err != nil || m.Addr != 10 {
		t.Fatalf("%+v %v", m, err)
	}
}

func TestRecvTimeoutTCP(t *testing.T) {
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acc := make(chan Transport, 1)
	go func() {
		tr, err := ln.Accept()
		if err == nil {
			acc <- tr
		} else {
			close(acc)
		}
	}()
	board, err := DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer board.Close()
	hw, ok := <-acc
	if !ok {
		t.Fatal("accept failed")
	}
	defer hw.Close()
	if _, err := RecvTimeout(hw, ChanClock, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	board.Send(ChanClock, Msg{Type: MTTimeAck, BoardCycle: 3})
	m, err := RecvTimeout(hw, ChanClock, time.Second)
	if err != nil || m.BoardCycle != 3 {
		t.Fatalf("%+v %v", m, err)
	}
}

func TestRecvTimeoutThroughWrapper(t *testing.T) {
	// DelayTransport does not implement recvTimeout; the polling fallback
	// must still honour the deadline.
	a, b := NewInProcPair(8)
	defer a.Close()
	wrapped := NewDelayTransport(a, 0)
	if _, err := RecvTimeout(wrapped, ChanInt, 15*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout via fallback", err)
	}
	b.Send(ChanInt, Msg{Type: MTInterrupt, IRQ: 4})
	m, err := RecvTimeout(wrapped, ChanInt, time.Second)
	if err != nil || m.IRQ != 4 {
		t.Fatalf("%+v %v", m, err)
	}
}

func TestHWEndpointDetectsDeadBoard(t *testing.T) {
	hwT, _ := NewInProcPair(8)
	defer hwT.Close()
	hw := NewHWEndpoint(hwT, SyncAlternating)
	hw.AckTimeout = 25 * time.Millisecond
	_, err := hw.Step(SimTime(10)) // board never answers
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Step err = %v, want ErrTimeout", err)
	}
}

// TestRecvTimeoutFallbackSeesClosure: the polling fallback must surface a
// transport error raised while it is waiting, not spin until the
// deadline.
func TestRecvTimeoutFallbackSeesClosure(t *testing.T) {
	a, _ := NewInProcPair(8)
	wrapped := NewDelayTransport(a, 0) // no recvTimeout: forces the poll path
	go func() {
		time.Sleep(5 * time.Millisecond)
		a.Close()
	}()
	start := time.Now()
	_, err := RecvTimeout(wrapped, ChanData, 5*time.Second)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("fallback kept polling a closed transport")
	}
}

// TestTCPCloseRacesReadLoop: closing a tcpTransport while its reader
// goroutines are decoding inbound frames must be race-free (run under
// -race) and leave Recv returning an error, not hanging.
func TestTCPCloseRacesReadLoop(t *testing.T) {
	for round := 0; round < 20; round++ {
		ln, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		acc := make(chan Transport, 1)
		go func() {
			tr, aerr := ln.Accept()
			if aerr != nil {
				close(acc)
				return
			}
			acc <- tr
		}()
		board, err := DialTCP(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		hw, ok := <-acc
		if !ok {
			t.Fatal("accept failed")
		}
		stop := make(chan struct{})
		go func() { // keep the read loops busy while Close lands
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if board.Send(ChanData, Msg{Type: MTDataWrite, Addr: uint32(i)}) != nil {
					return
				}
			}
		}()
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		hw.Close()
		for {
			if _, err := RecvTimeout(hw, ChanData, time.Second); err != nil {
				if errors.Is(err, ErrTimeout) {
					t.Fatal("Recv timed out instead of reporting closure")
				}
				break
			}
		}
		close(stop)
		board.Close()
		ln.Close()
	}
}
