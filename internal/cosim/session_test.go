package cosim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// sessionPair wraps both sides of an in-process link in sessions, with an
// optional chaos layer injuring each direction independently.
func sessionPair(cfg SessionConfig, chaos *Scenario) (*SessionTransport, *SessionTransport) {
	a, b := NewInProcPair(tcpInboxDepth)
	if chaos != nil {
		a = NewChaosTransport(a, *chaos)
		b = NewChaosTransport(b, chaos.WithSeed(chaos.Seed+1))
	}
	return NewSessionTransport(a, cfg), NewSessionTransport(b, cfg)
}

// recvOne pulls the next message on ch or fails the test.
func recvOne(t *testing.T, s *SessionTransport, ch Channel) Msg {
	t.Helper()
	m, err := RecvTimeout(s, ch, 10*time.Second)
	if err != nil {
		t.Fatalf("%v channel: %v", ch, err)
	}
	return m
}

// TestSessionCleanPassThrough: over a fault-free link the session is an
// invisible FIFO on every channel, in both directions.
func TestSessionCleanPassThrough(t *testing.T) {
	sa, sb := sessionPair(DefaultSessionConfig(), nil)
	defer sa.Close()
	defer sb.Close()

	if _, ok, err := sb.TryRecv(ChanData); ok || err != nil {
		t.Fatalf("TryRecv on idle link: ok=%v err=%v", ok, err)
	}
	for i := 0; i < 50; i++ {
		if err := sa.Send(ChanData, Msg{Type: MTDataWrite, Addr: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sa.Send(ChanInt, Msg{Type: MTInterrupt, IRQ: 7}); err != nil {
		t.Fatal(err)
	}
	if err := sb.Send(ChanClock, Msg{Type: MTTimeAck, BoardCycle: 11, SWTick: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if m := recvOne(t, sb, ChanData); m.Type != MTDataWrite || m.Addr != uint32(i) {
			t.Fatalf("frame %d mangled: %+v", i, m)
		}
	}
	if m := recvOne(t, sb, ChanInt); m.IRQ != 7 {
		t.Fatalf("interrupt mangled: %+v", m)
	}
	if m := recvOne(t, sa, ChanClock); m.BoardCycle != 11 || m.SWTick != 2 {
		t.Fatalf("time ack mangled: %+v", m)
	}
	if _, err := RecvTimeout(sa, ChanData, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recvTimeout on idle channel: %v, want ErrTimeout", err)
	}
	ls := sa.LinkStats()
	if ls.Retransmits != 0 || ls.CrcDropped != 0 || ls.GapsSeen != 0 {
		t.Fatalf("clean link accumulated damage: %+v", ls)
	}
}

// TestSessionRecoversUnderChaos: with the link dropping, duplicating,
// reordering, and corrupting frames in both directions, every message is
// still delivered exactly once, in order, on every channel.
func TestSessionRecoversUnderChaos(t *testing.T) {
	cfg := DefaultSessionConfig()
	cfg.RetransmitTimeout = 15 * time.Millisecond
	chaos := UniformScenario(31337, FaultProfile{Drop: 0.1, Duplicate: 0.08, Reorder: 0.08, Corrupt: 0.06, Truncate: 0.04})
	sa, sb := sessionPair(cfg, &chaos)
	defer sa.Close()
	defer sb.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if err := sa.Send(ChanData, Msg{Type: MTDataWrite, Addr: uint32(i)}); err != nil {
			t.Fatal(err)
		}
		if err := sb.Send(ChanClock, Msg{Type: MTTimeAck, BoardCycle: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if m := recvOne(t, sb, ChanData); m.Addr != uint32(i) {
			t.Fatalf("DATA frame %d out of order: %+v", i, m)
		}
		if m := recvOne(t, sa, ChanClock); m.BoardCycle != uint64(i) {
			t.Fatalf("CLOCK frame %d out of order: %+v", i, m)
		}
	}
	la, lb := sa.LinkStats(), sb.LinkStats()
	if la.FramesInjured == 0 || lb.FramesInjured == 0 {
		t.Fatalf("chaos injected nothing: %+v / %+v", la, lb)
	}
	if la.Retransmits+lb.Retransmits == 0 {
		t.Fatalf("no retransmissions despite %d injuries", la.FramesInjured+lb.FramesInjured)
	}
}

// TestSessionDedupCorruptionAndAliens exercises the receive paths against
// a hand-driven raw peer: duplicate envelopes are dropped, CRC-failing
// envelopes are nacked, and non-session frames never reach the inbox.
func TestSessionDedupCorruptionAndAliens(t *testing.T) {
	a, b := NewInProcPair(64)
	s := NewSessionTransport(a, DefaultSessionConfig())
	defer s.Close()

	body := (&Msg{Type: MTDataWrite, Addr: 0x44, Words: []uint32{9}}).appendBody(nil)
	env := Msg{Type: MTSessionData, Seq: 1, Crc: sessionCRC(1, body), Raw: body}
	for i := 0; i < 3; i++ { // one delivery, two duplicates
		if err := b.Send(ChanData, env); err != nil {
			t.Fatal(err)
		}
	}
	bad := env
	bad.Seq = 2
	bad.Crc ^= 0xdeadbeef // corrupt: CRC no longer matches
	if err := b.Send(ChanData, bad); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(ChanData, Msg{Type: MTDataWrite, Addr: 0x99}); err != nil {
		t.Fatal(err) // alien: plain frame on a session link
	}

	if m := recvOne(t, s, ChanData); m.Addr != 0x44 {
		t.Fatalf("delivered %+v", m)
	}
	if _, err := RecvTimeout(s, ChanData, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("dup/corrupt/alien leaked into the inbox: %v", err)
	}

	// The peer must have received a valid ack for seq 1 and a nack for the
	// corrupted frame; every control frame must carry a valid CRC.
	sawAck, sawNack := false, false
	for {
		m, ok, err := b.TryRecv(ChanData)
		if err != nil || !ok {
			break
		}
		switch m.Type {
		case MTSessionAck:
			if !validControl(m) {
				t.Fatalf("ack with bad CRC: %+v", m)
			}
			if m.Seq == 1 {
				sawAck = true
			}
		case MTSessionNack:
			if !validControl(m) {
				t.Fatalf("nack with bad CRC: %+v", m)
			}
			sawNack = true
		}
	}
	if !sawAck || !sawNack {
		t.Fatalf("peer control traffic incomplete: ack=%v nack=%v", sawAck, sawNack)
	}
	ls := s.LinkStats()
	if ls.DupsDropped != 2 || ls.CrcDropped == 0 || ls.AliensDropped != 1 {
		t.Fatalf("stats %+v, want DupsDropped=2 CrcDropped>0 AliensDropped=1", ls)
	}
}

// TestSessionHeartbeatDetectsDeadPeer: a silent peer is declared dead
// after HeartbeatMiss silent intervals, bounding the hang.
func TestSessionHeartbeatDetectsDeadPeer(t *testing.T) {
	a, _ := NewInProcPair(64)
	cfg := DefaultSessionConfig()
	cfg.HeartbeatInterval = 5 * time.Millisecond
	cfg.HeartbeatMiss = 3
	s := NewSessionTransport(a, cfg)
	defer s.Close()

	_, err := RecvTimeout(s, ChanClock, 5*time.Second)
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("err = %v, want ErrPeerDead", err)
	}
	ls := s.LinkStats()
	if ls.HeartbeatsSent == 0 || ls.HeartbeatsMissed == 0 {
		t.Fatalf("watchdog fired without counting: %+v", ls)
	}
}

// TestSessionRedialGivesUp: when every redial attempt fails, the session
// reports a terminal error instead of hanging.
func TestSessionRedialGivesUp(t *testing.T) {
	a, _ := NewInProcPair(8)
	cfg := DefaultSessionConfig()
	cfg.Redial = func() (Transport, error) { return nil, errors.New("cable cut") }
	cfg.MaxRedials = 2
	cfg.RedialBackoff = time.Millisecond
	s := NewSessionTransport(a, cfg)
	defer s.Close()

	a.Close() // sever the inner link; the supervisor must give up redialing
	_, err := RecvTimeout(s, ChanData, 5*time.Second)
	if err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want terminal redial failure", err)
	}
	if !strings.Contains(err.Error(), "redial failed") {
		t.Fatalf("err = %v, want redial-failure cause", err)
	}
}

// TestSessionTCPReconnectMidRun is the acceptance scenario: a full
// HW/board rendezvous over TCP survives a forced mid-run disconnect. The
// sessions redial (simulator side re-accepts, board side re-dials),
// replay unacked frames, and the run completes with identical semantics;
// the reconnect is visible in the endpoint metrics.
func TestSessionTCPReconnectMidRun(t *testing.T) {
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acc := make(chan Transport, 1)
	go func() {
		tr, aerr := ln.Accept()
		if aerr != nil {
			close(acc)
			return
		}
		acc <- tr
	}()
	boardRaw, err := DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hwRaw, ok := <-acc
	if !ok {
		t.Fatal("accept failed")
	}

	cfg := DefaultSessionConfig()
	cfg.RetransmitTimeout = 20 * time.Millisecond
	hwCfg := cfg
	hwCfg.Redial = ln.Reaccept()
	boardCfg := cfg
	boardCfg.Redial = Redialer(ln.Addr())
	hwS := NewSessionTransport(hwRaw, hwCfg)
	boardS := NewSessionTransport(boardRaw, boardCfg)
	defer hwS.Close()
	defer boardS.Close()

	hw := NewHWEndpoint(hwS, SyncAlternating)
	hw.AckTimeout = 10 * time.Second // fail instead of hanging if recovery breaks
	_, result := scriptedBoard(t, boardS, echo)

	const quanta = 20
	var echoes int
	for q := 1; q <= quanta; q++ {
		if q == quanta/2 {
			boardRaw.Close() // sever all three TCP channels mid-run
		}
		if _, err := hw.Step(SimTime(10 * q)); err != nil {
			t.Fatalf("quantum %d: %v", q, err)
		}
		echoes += len(hw.PollData())
	}
	if err := hw.Finish(10 * quanta); err != nil {
		t.Fatal(err)
	}
	echoes += len(hw.PollData())

	r := <-result
	if r.err != nil {
		t.Fatalf("board loop: %v", r.err)
	}
	if len(r.grants) != quanta {
		t.Fatalf("board saw %d grants, want %d", len(r.grants), quanta)
	}
	if echoes != quanta {
		t.Fatalf("HW saw %d board echoes, want %d", echoes, quanta)
	}
	cycle, tick := hw.BoardTime()
	if cycle != uint64(10*quanta) || tick != quanta {
		t.Fatalf("board time %d/%d, want %d/%d", cycle, tick, 10*quanta, quanta)
	}
	link := hw.Metrics().Link
	if hwS.LinkStats().Reconnects+boardS.LinkStats().Reconnects == 0 {
		t.Fatal("disconnect was not observed by either session")
	}
	if link.Retransmits+boardS.LinkStats().Retransmits == 0 {
		t.Fatal("reconnect replayed nothing")
	}
}

// TestSessionBidirectionalBulk: sessions on both sides of a four-deep
// link stream 2×tcpInboxDepth frames each way on every channel at once,
// so both users spend most of the run blocked on a full link. Read loops
// never write — they only record the acks they owe — so neither side's
// reader can block on a full link while its peer's reader waits for it,
// and every frame arrives, in order, before the deadline.
func TestSessionBidirectionalBulk(t *testing.T) {
	a, b := NewInProcPair(4)
	sa := NewSessionTransport(a, DefaultSessionConfig())
	sb := NewSessionTransport(b, DefaultSessionConfig())
	defer sa.Close()
	defer sb.Close()

	const n = 2 * tcpInboxDepth
	errs := make(chan error, 4*int(numChannels))
	var wg sync.WaitGroup
	for dir, p := range [2][2]*SessionTransport{{sa, sb}, {sb, sa}} {
		from, to := p[0], p[1]
		for ch := Channel(0); ch < numChannels; ch++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if err := from.Send(ch, Msg{Type: MTDataWrite, Addr: uint32(i)}); err != nil {
						errs <- fmt.Errorf("direction %d %v send %d: %w", dir, ch, i, err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					m, err := RecvTimeout(to, ch, 30*time.Second)
					if err != nil {
						errs <- fmt.Errorf("direction %d %v recv %d: %w", dir, ch, i, err)
						return
					}
					if m.Addr != uint32(i) {
						errs <- fmt.Errorf("direction %d %v frame %d arrived as %d", dir, ch, i, m.Addr)
						return
					}
					m.Release()
				}
			}()
		}
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("bidirectional bulk transfer deadlocked")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionFailureUnblocksSend: Send writes on the caller's goroutine,
// so against a peer that never reads it blocks inside the inner
// transport. The heartbeat watchdog's terminal failure closes that
// transport, and the blocked Send returns ErrPeerDead — also with a
// chaos layer beneath, whose Close must not wait for the blocked Send.
func TestSessionFailureUnblocksSend(t *testing.T) {
	for _, chaos := range []bool{false, true} {
		t.Run(fmt.Sprintf("chaos=%v", chaos), func(t *testing.T) {
			a, _ := NewInProcPair(1)
			if chaos {
				a = NewChaosTransport(a, UniformScenario(1, FaultProfile{}))
			}
			cfg := DefaultSessionConfig()
			cfg.HeartbeatInterval = 5 * time.Millisecond
			// 100 ms of silence: ample time for the first envelope to
			// fill the link and the second to block before the failure.
			cfg.HeartbeatMiss = 20
			s := NewSessionTransport(a, cfg)
			defer s.Close()

			type result struct {
				sent int
				err  error
			}
			res := make(chan result, 1)
			go func() {
				for i := 0; ; i++ {
					if err := s.Send(ChanData, Msg{Type: MTDataWrite, Addr: uint32(i)}); err != nil {
						res <- result{i, err}
						return
					}
				}
			}()
			// The bound leaves room for a loaded race-detector run.
			const bound = 2 * time.Second
			select {
			case r := <-res:
				if !errors.Is(r.err, ErrPeerDead) {
					t.Fatalf("blocked Send returned %v, want ErrPeerDead", r.err)
				}
				// The first envelope fills the one-slot link, so the
				// second is the one that blocked and was released by the
				// failure.
				if r.sent != 1 {
					t.Fatalf("Send failed after %d envelopes, want 1", r.sent)
				}
			case <-time.After(bound):
				t.Fatalf("Send still blocked %v after the peer went silent", bound)
			}
			if ls := s.LinkStats(); ls.HeartbeatsMissed == 0 {
				t.Fatalf("peer declared dead without counting missed heartbeats: %+v", ls)
			}
		})
	}
}

// sessionGoroutines counts the goroutines running a SessionTransport
// method (the frames above each stack's "created by" line).
func sessionGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "created by ") {
				break
			}
			if strings.Contains(line, ".(*SessionTransport).") {
				count++
				break
			}
		}
	}
	return count
}

// waitSessionGoroutines polls until exactly want session goroutines run
// (goroutines start and exit asynchronously).
func waitSessionGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := sessionGoroutines()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d session goroutines, want %d", when, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionGoroutineAccounting: a live session side runs exactly five
// goroutines — three read loops, the supervisor and the control writer —
// whether heartbeats are on or off, and none survives Close or a
// terminal failure (which needs no Close).
func TestSessionGoroutineAccounting(t *testing.T) {
	waitSessionGoroutines(t, 0, "before the test")
	for _, hb := range []time.Duration{0, 5 * time.Millisecond} {
		cfg := DefaultSessionConfig()
		cfg.HeartbeatInterval = hb
		cfg.HeartbeatMiss = 1000 // a scheduling stall must not kill the live pair
		sa, sb := sessionPair(cfg, nil)
		if err := sa.Send(ChanData, Msg{Type: MTDataWrite}); err != nil {
			t.Fatal(err)
		}
		m := recvOne(t, sb, ChanData)
		m.Release()
		waitSessionGoroutines(t, 2*5, fmt.Sprintf("live pair, heartbeat %v", hb))
		time.Sleep(20 * time.Millisecond) // several heartbeat intervals
		if got := sessionGoroutines(); got != 2*5 {
			t.Fatalf("heartbeat %v: %d session goroutines after running a while, want %d", hb, got, 2*5)
		}
		sa.Close()
		sb.Close()
		waitSessionGoroutines(t, 0, fmt.Sprintf("after Close, heartbeat %v", hb))
	}

	a, _ := NewInProcPair(64)
	cfg := DefaultSessionConfig()
	cfg.HeartbeatInterval = 5 * time.Millisecond
	s := NewSessionTransport(a, cfg)
	if _, err := RecvTimeout(s, ChanClock, 5*time.Second); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("err = %v, want ErrPeerDead", err)
	}
	waitSessionGoroutines(t, 0, "after a terminal failure without Close")
	s.Close()
}
