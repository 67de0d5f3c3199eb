package cosim

import (
	"testing"

	"repro/internal/hdlsim"
)

// grant is one clock grant as a scriptedParty saw it.
type grant struct {
	Ticks   uint64
	Traffic []hdlsim.DataMsg
}

// scriptedParty is a minimal served board: its clock runs one cycle per
// granted tick and one software tick per grant, it promises nothing, it
// records every grant, and post, when set, returns the events it emits
// during the grant ending at until.
type scriptedParty struct {
	post     func(g grant, until SimTime) []hdlsim.DataMsg
	grants   []grant
	staged   []hdlsim.DataMsg
	out      []hdlsim.DataMsg
	cur      SimTime
	finished bool
}

func (p *scriptedParty) Exchange(in []hdlsim.DataMsg) ([]hdlsim.DataMsg, error) {
	p.staged = append(p.staged, in...) // Serve reuses in at the next grant
	out := p.out
	p.out = nil
	return out, nil
}

func (p *scriptedParty) Step(until SimTime) (SimTime, error) {
	g := grant{Ticks: uint64(until - p.cur), Traffic: p.staged}
	p.staged = nil
	p.grants = append(p.grants, g)
	if p.post != nil {
		p.out = append(p.out, p.post(g, until)...)
	}
	p.cur = until
	return until, nil
}

func (p *scriptedParty) Lookahead() uint64    { return NoLookahead }
func (p *scriptedParty) Done() bool           { return false }
func (p *scriptedParty) Finish(SimTime) error { p.finished = true; return nil }
func (p *scriptedParty) BoardTime() (cycle, swTick uint64) {
	return uint64(p.cur), uint64(len(p.grants))
}

// echo posts one write of the grant's tick count.
func echo(g grant, _ SimTime) []hdlsim.DataMsg {
	return []hdlsim.DataMsg{{Kind: hdlsim.DataWrite, Addr: 0x10, Words: []uint32{uint32(g.Ticks)}}}
}

// served is what a scriptedBoard's party saw once serve returned.
type served struct {
	grants   []grant
	finished bool
	err      error
}

// scriptedBoard serves a scriptedParty with post on a goroutine over the
// board end of a link. It returns the board-side endpoint, whose Metrics
// are valid once the result arrives.
func scriptedBoard(t *testing.T, tr Transport, post func(grant, SimTime) []hdlsim.DataMsg) (*endpoint, <-chan served) {
	t.Helper()
	ep := newBoardSide(tr)
	out := make(chan served, 1)
	go func() {
		p := &scriptedParty{post: post}
		err := ep.serve(p)
		out <- served{p.grants, p.finished, err}
	}()
	return ep, out
}

func runRendezvous(t *testing.T, mode SyncMode) {
	t.Helper()
	hwT, boardT := NewInProcPair(64)
	hw := NewHWEndpoint(hwT, mode)
	_, result := scriptedBoard(t, boardT, echo)

	// Simulate three quanta of 10 ticks with one interrupt + one write in
	// the second.
	var boardData []hdlsim.DataMsg
	for q := 0; q < 3; q++ {
		if q == 1 {
			if err := hw.Send(hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: 0x20, Words: []uint32{42}}); err != nil {
				t.Fatal(err)
			}
			if err := hw.Send(hdlsim.DataMsg{Kind: hdlsim.DataInterrupt, IRQ: 5}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := hw.Step(SimTime(10 * (q + 1))); err != nil {
			t.Fatal(err)
		}
		boardData = append(boardData, hw.PollData()...)
	}
	if err := hw.Finish(30); err != nil {
		t.Fatal(err)
	}
	boardData = append(boardData, hw.PollData()...)

	r := <-result
	if r.err != nil || !r.finished {
		t.Fatalf("board loop: %v (party finished: %v)", r.err, r.finished)
	}
	if len(r.grants) != 3 {
		t.Fatalf("board saw %d grants, want 3", len(r.grants))
	}
	// The write+interrupt sent during HW quantum 2 ride grant 2, DATA
	// before INT.
	g := r.grants[1]
	if len(g.Traffic) != 2 || g.Traffic[0].Kind != hdlsim.DataWrite || g.Traffic[0].Addr != 0x20 || g.Traffic[0].Words[0] != 42 {
		t.Fatalf("grant 2 traffic: %+v", g.Traffic)
	}
	if g.Traffic[1].Kind != hdlsim.DataInterrupt || g.Traffic[1].IRQ != 5 {
		t.Fatalf("grant 2 interrupt: %+v", g.Traffic[1])
	}
	if len(r.grants[0].Traffic) != 0 || len(r.grants[2].Traffic) != 0 {
		t.Fatalf("stray traffic on grants 1/3: %+v", r.grants)
	}
	// Board echoed one write per quantum; all three must reach HW by
	// Finish regardless of mode.
	if len(boardData) != 3 {
		t.Fatalf("%v mode: HW saw %d board writes, want 3", mode, len(boardData))
	}
	for _, d := range boardData {
		if d.Kind != hdlsim.DataWrite || d.Addr != 0x10 || d.Words[0] != 10 {
			t.Fatalf("board write mangled: %+v", d)
		}
	}
	cyc, tick := hw.BoardTime()
	if cyc != 30 || tick != 3 {
		t.Fatalf("final board time %d/%d, want 30/3", cyc, tick)
	}
	hwT.Close()
}

func TestEndpointRendezvousAlternating(t *testing.T) { runRendezvous(t, SyncAlternating) }
func TestEndpointRendezvousPipelined(t *testing.T)   { runRendezvous(t, SyncPipelined) }

func TestAlternatingLatencyIsOneQuantum(t *testing.T) {
	hwT, boardT := NewInProcPair(64)
	hw := NewHWEndpoint(hwT, SyncAlternating)
	_, result := scriptedBoard(t, boardT, echo)

	// After the step of quantum 1, PollData must already hold the board's
	// quantum-1 echo (alternating waits for the ack).
	if _, err := hw.Step(SimTime(10)); err != nil {
		t.Fatal(err)
	}
	if got := hw.PollData(); len(got) != 1 {
		t.Fatalf("alternating: %d board msgs visible after first sync, want 1", len(got))
	}
	if err := hw.Finish(10); err != nil {
		t.Fatal(err)
	}
	<-result
	hwT.Close()
}

func TestPipelinedLatencyIsTwoQuanta(t *testing.T) {
	hwT, boardT := NewInProcPair(64)
	hw := NewHWEndpoint(hwT, SyncPipelined)
	_, result := scriptedBoard(t, boardT, echo)

	// Pipelined: first sync returns without waiting; no board data yet.
	if _, err := hw.Step(SimTime(10)); err != nil {
		t.Fatal(err)
	}
	if got := hw.PollData(); len(got) != 0 {
		t.Fatalf("pipelined: %d board msgs visible after first sync, want 0", len(got))
	}
	// Second sync consumes ack 1 → board quantum-1 data becomes visible.
	if _, err := hw.Step(SimTime(20)); err != nil {
		t.Fatal(err)
	}
	if got := hw.PollData(); len(got) != 1 {
		t.Fatalf("pipelined: %d board msgs visible after second sync, want 1", len(got))
	}
	if err := hw.Finish(20); err != nil {
		t.Fatal(err)
	}
	<-result
	hwT.Close()
}

func TestEndpointMetrics(t *testing.T) {
	hwT, boardT := NewInProcPair(64)
	hw := NewHWEndpoint(hwT, SyncAlternating)
	_, result := scriptedBoard(t, boardT, nil)

	for q := 0; q < 5; q++ {
		if _, err := hw.Step(SimTime(100 * (q + 1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := hw.Finish(500); err != nil {
		t.Fatal(err)
	}
	<-result
	m := hw.Metrics()
	if m.SyncEvents != 5 || m.TicksGranted != 500 {
		t.Fatalf("metrics %+v", m)
	}
	if m.BytesSent == 0 {
		t.Fatal("no bytes counted")
	}
	hwT.Close()
}

func TestEndpointOverTCP(t *testing.T) {
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acc := make(chan Transport, 1)
	go func() {
		tr, err := ln.Accept()
		if err != nil {
			t.Error(err)
			close(acc)
			return
		}
		acc <- tr
	}()
	boardT, err := DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hwT, ok := <-acc
	if !ok {
		t.Fatal("accept failed")
	}
	hw := NewHWEndpoint(hwT, SyncAlternating)
	_, result := scriptedBoard(t, boardT, echo)
	for q := 0; q < 10; q++ {
		if _, err := hw.Step(SimTime(7 * (q + 1))); err != nil {
			t.Fatal(err)
		}
		if got := hw.PollData(); len(got) != 1 || got[0].Words[0] != 7 {
			t.Fatalf("quantum %d: board data %+v", q, got)
		}
	}
	if err := hw.Finish(70); err != nil {
		t.Fatal(err)
	}
	r := <-result
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.grants) != 10 {
		t.Fatalf("board saw %d grants", len(r.grants))
	}
	hwT.Close()
	boardT.Close()
}

func TestBoardReadReqFlow(t *testing.T) {
	// Board posts a read request in quantum 1; HW routes it and responds
	// during quantum 2; response rides grant 3 (alternating: req visible
	// to HW after sync 1, HW answers during quantum 2, counts ride grant
	// for quantum 2... delivered with that grant).
	hwT, boardT := NewInProcPair(64)
	hw := NewHWEndpoint(hwT, SyncAlternating)
	_, result := scriptedBoard(t, boardT, func(_ grant, until SimTime) []hdlsim.DataMsg {
		if until == 10 { // first quantum: fire the read
			return []hdlsim.DataMsg{{Kind: hdlsim.DataReadReq, Addr: 0x50, Count: 2}}
		}
		return nil
	})

	// Quantum 1: nothing from HW.
	if _, err := hw.Step(SimTime(10)); err != nil {
		t.Fatal(err)
	}
	// HW now sees the read request and serves it mid-"quantum 2".
	reqs := hw.PollData()
	if len(reqs) != 1 || reqs[0].Kind != hdlsim.DataReadReq || reqs[0].Count != 2 {
		t.Fatalf("HW saw %+v", reqs)
	}
	if err := hw.Send(hdlsim.DataMsg{Kind: hdlsim.DataReadResp, Addr: 0x50, Words: []uint32{11, 22}}); err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Step(SimTime(20)); err != nil {
		t.Fatal(err)
	}
	if err := hw.Finish(20); err != nil {
		t.Fatal(err)
	}
	r := <-result
	if r.err != nil {
		t.Fatal(r.err)
	}
	var resps []hdlsim.DataMsg
	for _, g := range r.grants {
		resps = append(resps, g.Traffic...)
	}
	if len(resps) != 1 || resps[0].Kind != hdlsim.DataReadResp || resps[0].Addr != 0x50 || len(resps[0].Words) != 2 || resps[0].Words[1] != 22 {
		t.Fatalf("board read responses: %+v", resps)
	}
	hwT.Close()
}
