package cosim

import (
	"fmt"
	"testing"
	"time"
)

// netPair connects a board side to a simulator side over a stream
// network ("tcp" or "unix") and closes both when the test ends.
func netPair(t *testing.T, network, addr string) (hw, board Transport) {
	t.Helper()
	ln, err := ListenNet(network, addr)
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
	board, err = DialNet(network, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-accepted; err != nil {
		board.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { hw.Close(); board.Close() })
	return hw, board
}

// heldWords is frame i's payload: mostly small, every 97th frame at
// MaxWords, each word a function of frame and index.
func heldWords(i int) []uint32 {
	n := (i * 37) % 257
	if i%97 == 0 {
		n = MaxWords
	}
	w := make([]uint32, n)
	for j := range w {
		w[j] = uint32(i)<<16 ^ uint32(j)*2654435761
	}
	return w
}

// TestHeldMessagesStayIntact guards the ownership contract: a received
// message owns its payload by value, so a receiver may hold every message
// it gets, without copying, while the transport goes on decoding. Each
// stack receives 1,000 DATA writes of mixed sizes up to MaxWords, keeps
// them all, and only then checks every payload. A reader that reused its
// buffer under a returned payload (TCP's and UDS's frame reader compacts
// its buffer between frames; the shm ring is overwritten in place; the
// session and batch layers decode out of envelope and batch bodies)
// would corrupt the held ones.
func TestHeldMessagesStayIntact(t *testing.T) {
	const frames = 1000
	stacks := []struct {
		name string
		open func(t *testing.T) (Transport, Transport)
	}{
		{"inproc", func(t *testing.T) (Transport, Transport) { return NewInProcPair(tcpInboxDepth) }},
		{"tcp", func(t *testing.T) (Transport, Transport) { return netPair(t, "tcp", "127.0.0.1:0") }},
		{"uds", func(t *testing.T) (Transport, Transport) { return netPair(t, "unix", udsPath(t)) }},
		{"shm", func(t *testing.T) (Transport, Transport) { return newShmPairT(t, ShmConfig{}) }},
		{"batch+session/tcp", func(t *testing.T) (Transport, Transport) {
			hw, board := netPair(t, "tcp", "127.0.0.1:0")
			sess := DefaultSessionConfig()
			cfg := StackConfig{Session: &sess, Batch: true}
			hw, hwClose := BuildStack(hw, cfg)
			board, boardClose := BuildStack(board, cfg.Peer())
			t.Cleanup(func() { hwClose(); boardClose() })
			return hw, board
		}},
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			hw, board := st.open(t)
			sent := make(chan error, 1)
			go func() {
				for i := 0; i < frames; i++ {
					if err := board.Send(ChanData, Msg{Type: MTDataWrite, Addr: uint32(i), Words: heldWords(i)}); err != nil {
						sent <- fmt.Errorf("send %d: %w", i, err)
						return
					}
					// A CLOCK frame ends a quantum, flushing the batch layer.
					if i%16 == 15 || i == frames-1 {
						if err := board.Send(ChanClock, Msg{Type: MTTimeAck, BoardCycle: uint64(i)}); err != nil {
							sent <- fmt.Errorf("send ack %d: %w", i, err)
							return
						}
					}
				}
				sent <- nil
			}()
			held := make([]Msg, frames)
			for i := range held {
				m, err := RecvTimeout(hw, ChanData, 20*time.Second)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				held[i] = m
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			for i, m := range held {
				want := heldWords(i)
				if m.Type != MTDataWrite || m.Addr != uint32(i) || len(m.Words) != len(want) {
					t.Fatalf("frame %d: got %v addr %d with %d words, want addr %d with %d", i, m.Type, m.Addr, len(m.Words), i, len(want))
				}
				for j, w := range want {
					if m.Words[j] != w {
						t.Fatalf("frame %d word %d = %#x, want %#x: a later receive overwrote a held payload", i, j, m.Words[j], w)
					}
				}
			}
		})
	}
}
