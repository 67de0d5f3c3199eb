package cosim

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// This file pins the steady-state allocation budgets of the wire hot path.
// Every budget is an average over testing.AllocsPerRun with pools warmed
// first: the gates catch a regression to avoidable per-message allocation
// (a scratch buffer or envelope body allocated instead of reused) while
// leaving headroom for runtime noise. A decoded payload is one allocation
// of its exact size, owned by its receiver. Budgets are per *run* of the
// closure, not per message; each test states its per-message arithmetic.

// warmPools primes the codec scratch pool and the session freelist so the
// measured region reuses buffers instead of paying their first-fill
// allocations.
func warmPools(f func(), n int) {
	for i := 0; i < n; i++ {
		f()
	}
}

// discardSink is a Transport bottom that consumes messages the way the
// TCP writer does: nothing is retained.
type discardSink struct{ sent int }

func (s *discardSink) Send(ch Channel, m Msg) error          { s.sent++; return nil }
func (s *discardSink) Recv(ch Channel) (Msg, error)          { return Msg{}, ErrClosed }
func (s *discardSink) TryRecv(ch Channel) (Msg, bool, error) { return Msg{}, false, nil }
func (s *discardSink) Close() error                          { return nil }

// TestAllocsMsgRoundTrip gates the codec itself: one Encode→Decode of a
// payload-free frame allocates nothing (header and body are read into the
// pooled scratch buffer), and one of a DATA write allocates only the
// Words it hands its receiver. Under -race bufPool drops puts, hence the
// slack.
func TestAllocsMsgRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name   string
		m      Msg
		budget float64
	}{
		{"payload-free", Msg{Type: MTClockGrant, Ticks: 1000, HWCycle: 5000, DataCount: 2}, 0},
		{"payload", Msg{Type: MTDataWrite, Addr: 0x40, Words: []uint32{1, 2, 3, 4, 5, 6, 7, 8}}, 1},
	} {
		var buf bytes.Buffer
		var rd bytes.Reader
		roundTrip := func() {
			buf.Reset()
			if err := c.m.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			rd.Reset(buf.Bytes())
			if _, err := Decode(&rd); err != nil {
				t.Fatal(err)
			}
		}
		warmPools(roundTrip, 16)
		budget := c.budget
		if raceEnabled {
			budget = max(budget, 1) * raceAllocSlack
		}
		if avg := testing.AllocsPerRun(200, roundTrip); avg > budget {
			t.Errorf("%s Encode/Decode: %.2f allocs/op, budget %.1f", c.name, avg, budget)
		}
	}
}

// TestAllocsBatchFlush gates the coalescing layer: buffering a quantum's
// DATA messages and flushing them as one MTBatch into a discarding bottom
// must reuse the pending-slice backing; the flush body is one allocation
// of its exact size.
func TestAllocsBatchFlush(t *testing.T) {
	sink := &discardSink{}
	tx := NewBatchTransport(sink)
	words := []uint32{0xaa, 0xbb, 0xcc}
	flush := func() {
		for i := 0; i < 4; i++ {
			if err := tx.Send(ChanData, Msg{Type: MTDataWrite, Addr: uint32(i), Words: words}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Send(ChanClock, Msg{Type: MTClockGrant, Ticks: 100}); err != nil {
			t.Fatal(err)
		}
	}
	warmPools(flush, 16)
	// 5 sends per run (4 buffered + 1 batch + 1 clock on the wire).
	budget := 2.0 * raceAllocSlack
	if avg := testing.AllocsPerRun(200, flush); avg > budget {
		t.Errorf("batch flush: %.2f allocs/run, budget %.1f", avg, budget)
	}
}

// TestAllocsSessionSendRecv gates the resilience layer's steady state over
// an in-process link: envelope bodies come from the session's ack-recycled
// freelist, and each delivered message allocates its own Words. The
// budget is per run of one send + one recv, with the returning ack amortized
// across the run (ack handling is asynchronous, so individual runs jitter;
// the average must stay flat).
func TestAllocsSessionSendRecv(t *testing.T) {
	sa, sb := sessionPair(DefaultSessionConfig(), nil)
	defer sa.Close()
	defer sb.Close()

	// A run is one quantum-shaped burst: 8 sends then 8 receives, as the
	// endpoints drive the link. Acks for the burst recycle envelope bodies
	// while the user goroutine blocks in Recv, so the next burst's sends
	// reuse them — strict one-message ping-pong would instead always race
	// the ack home and miss the freelist.
	const burst = 8
	words := []uint32{1, 2, 3, 4}
	step := func() {
		// Stand-in for the endpoint's per-quantum simulation work: gives
		// the asynchronous ack pipeline time to recycle envelope bodies,
		// as it has during a real run.
		time.Sleep(200 * time.Microsecond)
		for i := 0; i < burst; i++ {
			if err := sa.Send(ChanData, Msg{Type: MTDataWrite, Addr: uint32(i), Words: words}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < burst; i++ {
			if _, err := sb.Recv(ChanData); err != nil {
				t.Fatal(err)
			}
		}
	}
	warmPools(step, 32)
	// Steady state measures ≲1 alloc per message, the received Words, plus
	// scheduling jitter in the ack pipeline; the path before envelope
	// bodies were recycled cost ~6 per message.
	budget := 2.0 * burst * raceAllocSlack
	if avg := testing.AllocsPerRun(200, step); avg > budget {
		t.Errorf("session burst(%d) send/recv: %.2f allocs/run, budget %.1f", burst, avg, budget)
	}
}

// TestPoolHammerConcurrentSessions drives eight independent session links
// concurrently through the shared codec scratch pool and their envelope
// freelists, with chaos injuring half of them. Run under -race this is
// the buffer-reuse data-race detector: a buffer handed to two owners
// shows up either as a race report or as a corrupted payload here.
func TestPoolHammerConcurrentSessions(t *testing.T) {
	const (
		sessions = 8
		msgs     = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			var chaos *Scenario
			if s%2 == 1 {
				sc := UniformScenario(int64(1000+s), FaultProfile{
					Drop: 0.05, Duplicate: 0.05, Reorder: 0.05, Corrupt: 0.05,
				})
				chaos = &sc
			}
			cfg := DefaultSessionConfig()
			cfg.RetransmitTimeout = 5 * time.Millisecond
			sa, sb := sessionPair(cfg, chaos)
			defer sa.Close()
			defer sb.Close()

			done := make(chan error, 1)
			go func() {
				for i := 0; i < msgs; i++ {
					m, err := RecvTimeout(sb, ChanData, 20*time.Second)
					if err != nil {
						done <- fmt.Errorf("session %d recv %d: %w", s, i, err)
						return
					}
					if m.Addr != uint32(i) || len(m.Words) != 4 || m.Words[0] != uint32(s)<<16|uint32(i) {
						done <- fmt.Errorf("session %d msg %d corrupted: %+v", s, i, m)
						return
					}
				}
				done <- nil
			}()
			for i := 0; i < msgs; i++ {
				w := []uint32{uint32(s)<<16 | uint32(i), uint32(i), ^uint32(i), 0x5a5a5a5a}
				m := Msg{Type: MTDataWrite, Addr: uint32(i), Words: w}
				if err := sa.Send(ChanData, m); err != nil {
					errs <- fmt.Errorf("session %d send %d: %w", s, i, err)
					return
				}
			}
			if err := <-done; err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLinkSetupAllocatesLittle gates what opening a link costs: inboxes
// grow with their traffic, so opening and closing a pair must not pay
// for the 4096-deep bound up front (a preallocated bound is 3.75 MiB
// per pair). The figure is the heap allocated per open+close, averaged.
func TestLinkSetupAllocatesLittle(t *testing.T) {
	const budget = 64 << 10
	perOpen := func(n int, open func() (Transport, Transport)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			a, b := open()
			a.Close()
			b.Close()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
	}
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	kinds := []struct {
		name string
		open func() (Transport, Transport)
	}{
		{"inproc", func() (Transport, Transport) { return NewInProcPair(tcpInboxDepth) }},
		{"tcp", func() (Transport, Transport) {
			accepted := make(chan Transport, 1)
			go func() {
				hw, err := ln.Accept()
				if err != nil {
					t.Error(err)
				}
				accepted <- hw
			}()
			board, err := DialTCP(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			hw := <-accepted
			if hw == nil {
				t.FailNow()
			}
			return hw, board
		}},
		{"session/inproc", func() (Transport, Transport) {
			a, b := NewInProcPair(tcpInboxDepth)
			return NewSessionTransport(a, SessionConfig{}), NewSessionTransport(b, SessionConfig{})
		}},
	}
	if ShmSupported() {
		kinds = append(kinds, struct {
			name string
			open func() (Transport, Transport)
		}{"shm", func() (Transport, Transport) {
			hw, board, err := NewShmPair(ShmConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return hw, board
		}})
	}
	for _, k := range kinds {
		perOpen(2, k.open) // warm pools and lazily built runtime state
		if got := perOpen(20, k.open); got > budget {
			t.Errorf("%s: %d KiB allocated per link open+close, budget %d KiB", k.name, got>>10, budget>>10)
		} else {
			t.Logf("%s: %.1f KiB per link open+close", k.name, float64(got)/1024)
		}
	}
}
