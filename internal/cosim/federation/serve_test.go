package federation

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cosim"
	"repro/internal/hdlsim"
)

// linkPair opens the two ends of a fresh link: "inproc" or "tcp" over
// loopback.
func linkPair(t *testing.T, kind string) (hwT, boardT cosim.Transport) {
	t.Helper()
	if kind == "inproc" {
		return cosim.NewInProcPair(64)
	}
	ln, err := cosim.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acc := make(chan cosim.Transport, 1)
	go func() {
		tr, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		acc <- tr
	}()
	boardT, err = cosim.DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if hwT = <-acc; hwT == nil {
		boardT.Close()
		t.Fatal("accept failed")
	}
	return hwT, boardT
}

// bootingParty is a fakeParty that promises nothing before its first
// step, like a board whose application is runnable at boot.
type bootingParty struct{ *fakeParty }

func (p bootingParty) Lookahead() uint64 {
	if p.steps == 0 {
		return cosim.NoLookahead
	}
	return p.fakeParty.Lookahead()
}

// TestServedPartyMatchesInProcess: cosim.Serve takes the manager's steps
// for a granted party, in the manager's order, so a party served over a
// wire (an HWEndpoint on the manager's side) runs the federation of
// TestZeroLookaheadForcesPlainStepping as it runs in-process: the same
// Stats, SyncsBy included, the same values delivered at the same ticks,
// and every party finished, over an in-process pair and over TCP, plain
// and adaptive.
//
// The wire carries a party's promise on its acknowledgements, so before
// the first one the manager sees none. Consumers that promise nothing
// before their first step (booting) therefore run identically; consumers
// idle from the start cost an adaptive wire run exactly one more
// rendezvous, for the peer at the first boundary, which the in-process
// run elides.
func TestServedPartyMatchesInProcess(t *testing.T) {
	const tsync, quanta = 100, 10
	type outcome struct {
		st         Stats
		got, gotAt string
		steps      string
		finished   [3]bool
	}
	run := func(link string, adaptive, booting bool) outcome {
		dev := &fakeParty{name: "dev", la: cosim.NoLookahead, emitAt: 437, emitTo: []uint32{0x100, 0x200}}
		bs := []*fakeParty{{name: "b1", la: cosim.UnboundedLookahead}, {name: "b2", la: cosim.UnboundedLookahead}}
		parties := []Party{{Name: dev.name, Fed: dev, Eager: true}}
		var served []chan error
		var hwTs []cosim.Transport
		for _, b := range bs {
			var fed cosim.Federate = b
			if booting {
				fed = bootingParty{b}
			}
			if link != "" {
				hwT, boardT := linkPair(t, link)
				done := make(chan error, 1)
				go func(f cosim.Federate) { done <- cosim.Serve(boardT, f, nil, b.name) }(fed)
				served, hwTs = append(served, done), append(hwTs, hwT)
				fed = cosim.NewHWEndpoint(hwT, cosim.SyncAlternating)
			}
			parties = append(parties, Party{Name: b.name, Fed: fed})
		}
		tm, err := New(Config{
			Parties:  parties,
			Links:    []Link{{From: 0, To: 1, Base: 0x100, Size: 0x10}, {From: 0, To: 2, Base: 0x200, Size: 0x10}},
			Schedule: Schedule{TSync: tsync, TotalCycles: quanta * tsync, Adaptive: adaptive},
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := tm.Run(context.Background())
		if err != nil {
			t.Fatalf("%s adaptive=%v: %v", link, adaptive, err)
		}
		for i, done := range served {
			if err := <-done; err != nil {
				t.Fatalf("%s adaptive=%v: Serve(%s): %v", link, adaptive, bs[i].name, err)
			}
			hwTs[i].Close()
		}
		o := outcome{st: st}
		for i, p := range []*fakeParty{dev, bs[0], bs[1]} {
			o.finished[i] = p.finished
		}
		for _, b := range bs {
			o.got += fmt.Sprint(b.got)
			o.gotAt += fmt.Sprint(b.gotAt)
			o.steps += fmt.Sprint(b.steps, " ")
		}
		return o
	}
	for _, booting := range []bool{true, false} {
		for _, adaptive := range []bool{false, true} {
			want := run("", adaptive, booting)
			if want.finished != [3]bool{true, true, true} || want.gotAt != "[400][400]" {
				t.Fatalf("booting=%v adaptive=%v: in-process reference is degenerate: %+v", booting, adaptive, want)
			}
			if adaptive && !booting {
				// The first boundary, elided in-process, is a rendezvous
				// for the peer over the wire.
				want.st.Syncs++
				want.st.Elided--
				want.st.SyncsBy[SyncPeer]++
				want.steps = "3 3 "
			}
			for _, link := range []string{"inproc", "tcp"} {
				if got := run(link, adaptive, booting); got != want {
					t.Errorf("%s booting=%v adaptive=%v: served run diverged\nserved %+v\nwant   %+v", link, booting, adaptive, got, want)
				}
			}
		}
	}
}

// irqParty is a served party that emits an interrupt, which the board
// side of the wire cannot send.
type irqParty struct{ fakeParty }

func (p *irqParty) Exchange(in []hdlsim.DataMsg) ([]hdlsim.DataMsg, error) {
	if _, err := p.fakeParty.Exchange(in); err != nil {
		return nil, err
	}
	return []hdlsim.DataMsg{{Kind: hdlsim.DataInterrupt, IRQ: 3}}, nil
}

// TestServeRefusals: a served party whose Step stops short of its grant,
// or that emits an interrupt, fails Serve with an error naming the cause;
// Serve finishes the party and closes its link, so the simulator's Step
// fails instead of blocking.
func TestServeRefusals(t *testing.T) {
	short := &fakeParty{name: "short", halt: 25}
	irq := &irqParty{fakeParty{name: "irq"}}
	for _, tc := range []struct {
		name  string
		party cosim.Federate
		f     *fakeParty
		want  []string
	}{
		{"early stop", short, short, []string{"stopped at 25", "grant to 30"}},
		{"interrupt", irq, &irq.fakeParty, []string{"board side cannot send interrupt"}},
	} {
		hwT, boardT := cosim.NewInProcPair(64)
		served := make(chan error, 1)
		go func() { served <- cosim.Serve(boardT, tc.party, nil, "board") }()
		hw := cosim.NewHWEndpoint(hwT, cosim.SyncAlternating)
		stepped := make(chan error, 1)
		go func() {
			for until := cosim.SimTime(10); until <= 100; until += 10 {
				if _, err := hw.Step(until); err != nil {
					stepped <- err
					return
				}
			}
			stepped <- nil
		}()
		select {
		case err := <-stepped:
			if err == nil {
				t.Errorf("%s: the simulator stepped to 100 past a failed party", tc.name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the simulator's Step still blocked 5 s after the party failed", tc.name)
		}
		hwT.Close()
		err := <-served
		for _, w := range tc.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%s: Serve returned %v, want an error naming %q", tc.name, err, w)
			}
		}
		if !tc.f.finished {
			t.Errorf("%s: Serve did not finish the failed party", tc.name)
		}
	}
}
