package cosim

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func newShmPairT(t *testing.T, cfg ShmConfig) (Transport, Transport) {
	t.Helper()
	if !ShmSupported() {
		t.Skip("shm transport unsupported on this platform")
	}
	hw, board, err := NewShmPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hw.Close(); board.Close() })
	return hw, board
}

func TestShmTransportConformance(t *testing.T) {
	hw, board := newShmPairT(t, ShmConfig{})
	exerciseTransport(t, hw, board)
}

// TestShmUnsupportedProbeConsistent pins the constructor/fallback
// contract: when ShmSupported reports false, every constructor returns
// ErrShmUnsupported (and vice versa NewShmPair works where it reports
// true).
func TestShmUnsupportedProbeConsistent(t *testing.T) {
	hw, board, err := NewShmPair(ShmConfig{})
	if ShmSupported() {
		if err != nil {
			t.Fatalf("ShmSupported()=true but NewShmPair failed: %v", err)
		}
		hw.Close()
		board.Close()
		return
	}
	if !errors.Is(err, ErrShmUnsupported) {
		t.Fatalf("ShmSupported()=false but NewShmPair returned %v, want ErrShmUnsupported", err)
	}
	if _, err := CreateShm(filepath.Join(t.TempDir(), "l"), ShmConfig{}); !errors.Is(err, ErrShmUnsupported) {
		t.Fatalf("CreateShm = %v, want ErrShmUnsupported", err)
	}
	if _, err := OpenShm(filepath.Join(t.TempDir(), "l")); !errors.Is(err, ErrShmUnsupported) {
		t.Fatalf("OpenShm = %v, want ErrShmUnsupported", err)
	}
}

// TestShmWraparound drives enough large frames through a minimum-size
// ring that records must wrap past the buffer end, and checks nothing is
// lost, reordered, or corrupted.
func TestShmWraparound(t *testing.T) {
	hw, board := newShmPairT(t, ShmConfig{RingBytes: ShmMinRingBytes})
	const frames = 500
	words := make([]uint32, 1000) // ~4KB body: ~16 records per ring pass
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			for j := range words {
				words[j] = uint32(i + j)
			}
			if err := hw.Send(ChanData, Msg{Type: MTDataWrite, Addr: uint32(i), Words: words}); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < frames; i++ {
		m, err := board.Recv(ChanData)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if m.Addr != uint32(i) || len(m.Words) != len(words) {
			t.Fatalf("frame %d corrupted: addr=%d words=%d", i, m.Addr, len(m.Words))
		}
		for j, w := range m.Words {
			if w != uint32(i+j) {
				t.Fatalf("frame %d word %d = %d, want %d", i, j, w, i+j)
			}
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if s := hw.(*ShmTransport).Stats(); s.RingWraps == 0 {
		t.Fatal("expected ring wraps with 4KB frames through a 64KB ring; got none")
	}
}

// TestShmBackpressureBlocksThenDrains fills the ring and the inbox, then
// verifies a parked sender completes once the receiver drains.
func TestShmBackpressureBlocksThenDrains(t *testing.T) {
	hw, board := newShmPairT(t, ShmConfig{RingBytes: ShmMinRingBytes, InboxDepth: 1})
	const frames = 200
	words := make([]uint32, 2000) // ~8KB per record: ring+inbox hold far fewer than 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := hw.Send(ChanData, Msg{Type: MTDataWrite, Addr: uint32(i), Words: words}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// Give the sender time to hit the full ring and park.
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < frames; i++ {
		m, err := board.Recv(ChanData)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if m.Addr != uint32(i) {
			t.Fatalf("recv %d: addr %d", i, m.Addr)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestShmCloseUnblocksParkedSender proves Close is not deadlocked by a
// sender stuck on a full ring with a full inbox.
func TestShmCloseUnblocksParkedSender(t *testing.T) {
	hw, board := newShmPairT(t, ShmConfig{RingBytes: ShmMinRingBytes, InboxDepth: 1})
	words := make([]uint32, 2000)
	sent := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 1000 && err == nil; i++ {
			err = hw.Send(ChanData, Msg{Type: MTDataWrite, Words: words})
		}
		sent <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := hw.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sent:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked sender returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sender still blocked after Close")
	}
	board.Close()
}

// TestShmSendRacingCloseKeepsOffUnmappedRing: once both sides close, the
// shared segment is unmapped, so a Send racing or following Close must
// return ErrClosed without reading the ring.
func TestShmSendRacingCloseKeepsOffUnmappedRing(t *testing.T) {
	hw, board := newShmPairT(t, ShmConfig{})
	sent := make(chan error, 2)
	for _, tr := range []Transport{hw, board} {
		go func() {
			var err error
			for err == nil {
				err = tr.Send(ChanClock, Msg{Type: MTHeartbeat})
			}
			sent <- err
		}()
	}
	hw.Close()
	board.Close()
	for range 2 {
		if err := <-sent; !errors.Is(err, ErrClosed) {
			t.Fatalf("racing sender returned %v, want ErrClosed", err)
		}
	}
	for _, tr := range []Transport{hw, board} {
		if err := tr.Send(ChanClock, Msg{Type: MTHeartbeat}); !errors.Is(err, ErrClosed) {
			t.Fatalf("send after close returned %v, want ErrClosed", err)
		}
	}
}

func TestShmRecvTimeout(t *testing.T) {
	hw, _ := newShmPairT(t, ShmConfig{})
	rt := hw.(interface {
		recvTimeout(Channel, time.Duration) (Msg, error)
	})
	if _, err := rt.recvTimeout(ChanData, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recvTimeout = %v, want ErrTimeout", err)
	}
}

// TestShmOversizeFrameRejected: a frame larger than half the ring can
// never fit and must fail fast instead of parking forever.
func TestShmOversizeFrameRejected(t *testing.T) {
	hw, _ := newShmPairT(t, ShmConfig{RingBytes: ShmMinRingBytes})
	err := hw.Send(ChanData, Msg{Type: MTDataWrite, Words: make([]uint32, 16384)}) // 64KB body > 32KB half-ring
	if err == nil || !strings.Contains(err.Error(), "exceeds shm ring capacity") {
		t.Fatalf("oversize send = %v, want capacity error", err)
	}
}

// TestShmFileLink exercises the two-process shape: CreateShm / OpenShm
// over one path, traffic both ways, close from the opener side.
func TestShmFileLink(t *testing.T) {
	if !ShmSupported() {
		t.Skip("shm transport unsupported on this platform")
	}
	path := filepath.Join(t.TempDir(), "link.shm")
	creator, err := CreateShm(path, ShmConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	opener, err := OpenShm(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opener.Close()
	// The mapping survives the unlink; nothing should break below.
	os.Remove(path)

	if err := creator.Send(ChanClock, Msg{Type: MTClockGrant, Ticks: 41}); err != nil {
		t.Fatal(err)
	}
	if m, err := opener.Recv(ChanClock); err != nil || m.Ticks != 41 {
		t.Fatalf("opener recv: %+v %v", m, err)
	}
	if err := opener.Send(ChanClock, Msg{Type: MTTimeAck, BoardCycle: 7}); err != nil {
		t.Fatal(err)
	}
	if m, err := creator.Recv(ChanClock); err != nil || m.BoardCycle != 7 {
		t.Fatalf("creator recv: %+v %v", m, err)
	}

	// Opener closes; creator's next receive observes the shared flag.
	opener.Close()
	if _, err := creator.Recv(ChanClock); err == nil {
		t.Fatal("creator Recv returned nil error after peer close")
	}
}

func TestShmCreateRefusesExistingPath(t *testing.T) {
	if !ShmSupported() {
		t.Skip("shm transport unsupported on this platform")
	}
	path := filepath.Join(t.TempDir(), "link.shm")
	tr, err := CreateShm(path, ShmConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := CreateShm(path, ShmConfig{}); err == nil {
		t.Fatal("CreateShm over an existing link file succeeded")
	}
}

func TestShmOpenValidatesSegment(t *testing.T) {
	if !ShmSupported() {
		t.Skip("shm transport unsupported on this platform")
	}
	dir := t.TempDir()

	bad := filepath.Join(dir, "bad-magic")
	if err := os.WriteFile(bad, make([]byte, shmSegmentSize(ShmMinRingBytes)), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShm(bad); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("OpenShm(bad magic) = %v", err)
	}

	short := filepath.Join(dir, "truncated")
	if err := os.WriteFile(short, []byte("COSIM"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShm(short); err == nil {
		t.Fatal("OpenShm accepted a truncated segment")
	}

	// A correct header over a file too small for its declared capacity.
	lying := filepath.Join(dir, "lying-cap")
	seg := make([]byte, shmDataOff)
	initShmSegment(seg, ShmDefaultRingBytes)
	if err := os.WriteFile(lying, seg, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShm(lying); err == nil || !strings.Contains(err.Error(), "implausible ring capacity") {
		t.Fatalf("OpenShm(lying capacity) = %v", err)
	}
}

// TestShmRingCorruptLengthPoisons stamps garbage into a record's length
// prefix and checks the reader reports a terminal decode error instead of
// hanging or panicking.
func TestShmRingCorruptLengthPoisons(t *testing.T) {
	seg := newHeapShmSegment(ShmMinRingBytes)
	a, _ := segmentRings(seg, ShmMinRingBytes)
	m := Msg{Type: MTClockGrant, Ticks: 5}
	if _, _, err := a.tryPush(ChanClock, &m); err != nil {
		t.Fatal(err)
	}
	// Corrupt the length in place: larger than the published region.
	seg[shmDataOff+0] = 0xF0
	seg[shmDataOff+1] = 0xFF
	seg[shmDataOff+2] = 0x00
	seg[shmDataOff+3] = 0x00
	if _, _, _, err := a.tryPop(); err == nil || errors.Is(err, errShmEmpty) {
		t.Fatalf("tryPop on corrupt ring = %v, want terminal error", err)
	}
}

// TestShmRingFullEmptyBoundary drives the raw ring verbs to exact
// full/empty transitions.
func TestShmRingFullEmptyBoundary(t *testing.T) {
	seg := newHeapShmSegment(ShmMinRingBytes)
	r, _ := segmentRings(seg, ShmMinRingBytes)

	if _, _, _, err := r.tryPop(); !errors.Is(err, errShmEmpty) {
		t.Fatalf("fresh ring tryPop = %v, want errShmEmpty", err)
	}
	m := Msg{Type: MTDataWrite, Words: make([]uint32, 500)}
	pushed := 0
	for {
		if _, _, err := r.tryPush(ChanData, &m); err != nil {
			if !errors.Is(err, errShmFull) {
				t.Fatal(err)
			}
			break
		}
		pushed++
		if pushed > 10000 {
			t.Fatal("ring never filled")
		}
	}
	if pushed == 0 {
		t.Fatal("ring accepted nothing")
	}
	for i := 0; i < pushed; i++ {
		ch, body, newTail, err := r.tryPop()
		if err != nil {
			t.Fatalf("pop %d/%d: %v", i, pushed, err)
		}
		if ch != ChanData {
			t.Fatalf("pop %d: channel %d", i, ch)
		}
		if _, derr := decodeBody(body); derr != nil {
			t.Fatalf("pop %d: decode: %v", i, derr)
		}
		r.hdr.tail.Store(newTail)
	}
	if _, _, _, err := r.tryPop(); !errors.Is(err, errShmEmpty) {
		t.Fatalf("drained ring tryPop = %v, want errShmEmpty", err)
	}
	// After a full drain the ring accepts traffic again.
	if _, _, err := r.tryPush(ChanData, &m); err != nil {
		t.Fatalf("push after drain: %v", err)
	}
}
