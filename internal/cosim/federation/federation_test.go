package federation

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cosim"
	"repro/internal/hdlsim"
)

// fakeParty is a scripted federate for manager unit tests: an eager
// variant emits one sequenced write every emitEvery-th quantum, or one
// to each of emitTo in the quantum holding cycle emitAt; a lazy variant
// records what it is delivered and at which tick the delivery lands
// (its clock plus the grant's lead).
type fakeParty struct {
	name  string
	cur   cosim.SimTime
	la    uint64
	halt  cosim.SimTime // Done once reached; 0 means never
	tsync uint64

	// producer script (eager parties)
	emitEvery uint64 // emit on every n-th quantum boundary; 0 = silent
	addr      uint32
	emitAt    cosim.SimTime
	emitTo    []uint32
	seq       uint32
	out       []cosim.FedMsg

	// cancel, when set, is called by the Step that reaches cancelAt.
	cancel   context.CancelFunc
	cancelAt cosim.SimTime

	// consumer record (lazy parties)
	lead     uint64
	got      []uint32
	gotAt    []cosim.SimTime
	steps    int
	finished bool
}

func (f *fakeParty) Name() string { return f.name }

func (f *fakeParty) Step(until cosim.SimTime) (cosim.SimTime, error) {
	if f.halt != 0 && until > f.halt {
		until = f.halt
	}
	if f.emitEvery > 0 && f.tsync > 0 {
		q := uint64(until) / f.tsync
		if q > 0 && q%f.emitEvery == 0 {
			f.seq++
			f.out = append(f.out, cosim.FedMsg{Kind: cosim.FedWrite, Addr: f.addr, Words: []uint32{f.seq}})
		}
	}
	if f.cur < f.emitAt && f.emitAt < until {
		for _, a := range f.emitTo {
			f.seq++
			f.out = append(f.out, cosim.FedMsg{Kind: cosim.FedWrite, Addr: a, Words: []uint32{f.seq}})
		}
	}
	f.cur = until
	f.steps++
	if f.cancel != nil && until >= f.cancelAt {
		f.cancel()
	}
	return until, nil
}

func (f *fakeParty) Exchange(in []cosim.FedMsg) ([]cosim.FedMsg, error) {
	for _, m := range in {
		if len(m.Words) != 1 {
			return nil, fmt.Errorf("fake %s: malformed delivery", f.name)
		}
		f.got = append(f.got, m.Words[0])
		f.gotAt = append(f.gotAt, f.cur+cosim.SimTime(f.lead))
	}
	out := f.out
	f.out = nil
	return out, nil
}

func (f *fakeParty) Lookahead() uint64 { return f.la }

func (f *fakeParty) SetGrantLead(ticks uint64) { f.lead = ticks }

func (f *fakeParty) Done() bool { return f.halt != 0 && f.cur >= f.halt }

func (f *fakeParty) Finish(at cosim.SimTime) error {
	f.finished = true
	return nil
}

// TestZeroLookaheadForcesPlainStepping: adaptive elongation is a
// negotiation among the granted parties — a single one promising no
// lookahead pins the whole federation to plain TSync rendezvous, while
// the same topology with generous promises elides every quiet boundary.
// An eager party makes no promise: its irregular event closes an
// elongated grant whose lead lands it at the plain-stepping tick.
func TestZeroLookaheadForcesPlainStepping(t *testing.T) {
	const tsync, quanta = 100, 10
	build := func(lazyLA1, lazyLA2 uint64) (*TimeManager, []*fakeParty) {
		ps := []*fakeParty{
			{name: "dev", la: cosim.NoLookahead, tsync: tsync},
			{name: "b1", la: lazyLA1},
			{name: "b2", la: lazyLA2},
		}
		tm, err := New(Config{
			Parties:      []Party{{Fed: ps[0], Eager: true}, {Fed: ps[1]}, {Fed: ps[2]}},
			Links:        []Link{{From: 0, To: 1, Base: 0x100, Size: 0x10}, {From: 0, To: 2, Base: 0x200, Size: 0x10}},
			DriverConfig: hdlsim.DriverConfig{TSync: tsync, TotalCycles: quanta * tsync, Adaptive: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tm, ps
	}
	unbounded := cosim.UnboundedLookahead

	// Control: every board promises unbounded lookahead, no traffic —
	// every boundary is elided and one final rendezvous settles the run.
	tm, _ := build(unbounded, unbounded)
	st, err := tm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Elided != quanta || st.Syncs != 1 {
		t.Fatalf("generous promises: %d elided / %d syncs, want %d / 1", st.Elided, st.Syncs, quanta)
	}

	// One granted party with zero lookahead: no boundary may be elided.
	tm, _ = build(unbounded, cosim.NoLookahead)
	if st, err = tm.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.Elided != 0 || st.Syncs != quanta {
		t.Fatalf("zero-lookahead board: %d elided / %d syncs, want 0 / %d", st.Elided, st.Syncs, quanta)
	}

	// An eager party promising nothing emits one event to each board at
	// cycle 437, in the quantum [400, 500). Plain stepping delivers it
	// with the rendezvous at 500, to boards standing at 400; the adaptive
	// run elides the four boundaries before it and the grant at 500
	// carries lead 400.
	for _, adaptive := range []bool{false, true} {
		dev := &fakeParty{name: "dev", la: cosim.NoLookahead, emitAt: 437, emitTo: []uint32{0x100, 0x200}}
		b1 := &fakeParty{name: "b1", la: unbounded}
		b2 := &fakeParty{name: "b2", la: unbounded}
		tm, err := New(Config{
			Parties:      []Party{{Fed: dev, Eager: true}, {Fed: b1}, {Fed: b2}},
			Links:        []Link{{From: 0, To: 1, Base: 0x100, Size: 0x10}, {From: 0, To: 2, Base: 0x200, Size: 0x10}},
			DriverConfig: hdlsim.DriverConfig{TSync: tsync, TotalCycles: quanta * tsync, Adaptive: adaptive},
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := tm.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []*fakeParty{b1, b2} {
			if len(b.gotAt) != 1 || b.gotAt[0] != 400 {
				t.Fatalf("adaptive=%v: %s received the event at %v, want once at 400", adaptive, b.name, b.gotAt)
			}
		}
		if !adaptive {
			continue
		}
		// Boundaries 100–400 elided, 500 closed by the traffic, 600–1000
		// elided, and the final grant settles the run.
		if st.Elided != quanta-1 || st.Syncs != 2 || st.SyncsBy[hdlsim.SyncTraffic] != 1 {
			t.Fatalf("silent device: %d elided / %d syncs %v, want %d / 2 with one for traffic", st.Elided, st.Syncs, st.SyncsBy, quanta-1)
		}
	}
}

// TestSlowPartyCannotReorderEvents is the adversarial-ordering check:
// one granted party promising a huge lookahead stretches the quanta
// (elisions), another produces traffic on an irregular schedule — yet
// the consumer observes every sequence number exactly once, in emission
// order, and never before the producer's clock reached the emission
// point. Run under -race this also proves the manager needs no hidden
// synchronization: everything happens on one goroutine.
func TestSlowPartyCannotReorderEvents(t *testing.T) {
	const tsync, quanta = 100, 60
	producer := &fakeParty{name: "producer", la: cosim.UnboundedLookahead, tsync: tsync, emitEvery: 3, addr: 0x100}
	consumer := &fakeParty{name: "consumer", la: 5 * tsync}
	slow := &fakeParty{name: "slow", la: cosim.UnboundedLookahead}
	tm, err := New(Config{
		Parties: []Party{{Fed: producer, Eager: true}, {Fed: consumer}, {Fed: slow}},
		Links: []Link{
			{From: 0, To: 1, Base: 0x100, Size: 0x10},
			{From: 0, To: 2, Base: 0x200, Size: 0x10},
		},
		DriverConfig: hdlsim.DriverConfig{TSync: tsync, TotalCycles: quanta * tsync, Adaptive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Elided == 0 {
		t.Fatal("schedule never stretched — the test exercises nothing")
	}
	if producer.seq == 0 {
		t.Fatal("producer emitted nothing")
	}
	if len(consumer.got) != int(producer.seq) {
		t.Fatalf("consumer saw %d of %d events", len(consumer.got), producer.seq)
	}
	for i, v := range consumer.got {
		if v != uint32(i+1) {
			t.Fatalf("delivery %d carries seq %d — events reordered, lost or duplicated (%v)", i, v, consumer.got)
		}
		// Emission i+1 happened at quantum 3*(i+1); the consumer's local
		// clock at delivery (its last granted time) must never have
		// passed that point — a conservative schedule cannot deliver
		// into the consumer's past.
		if emitAt := cosim.SimTime(3 * uint64(i+1) * tsync); consumer.gotAt[i] > emitAt {
			t.Fatalf("seq %d delivered with consumer clock %d past its emission at %d", v, consumer.gotAt[i], emitAt)
		}
	}
	if !consumer.finished || !producer.finished || !slow.finished {
		t.Fatal("not every party was finished")
	}
}

// TestCancelStopsElongatedRun: an uncapped adaptive run whose every
// promise is unbounded would elide every boundary up to its horizon, so
// the manager must notice cancellation at elided boundaries too. The
// clock-driving party cancels mid-quantum; the run fails with the cause
// at the next boundary, within one TSync of the cancel.
func TestCancelStopsElongatedRun(t *testing.T) {
	const tsync, cancelAt = 100, 12_345
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dev := &fakeParty{name: "dev", la: cosim.UnboundedLookahead, tsync: tsync, cancel: cancel, cancelAt: cancelAt}
	brd := &fakeParty{name: "board", la: cosim.UnboundedLookahead}
	tm, err := New(Config{
		Parties:      []Party{{Fed: dev, Eager: true}, {Fed: brd}},
		Links:        []Link{{From: 0, To: 1, Base: 0, Size: 0x10}},
		DriverConfig: hdlsim.DriverConfig{TSync: tsync, TotalCycles: 1_000_000 * tsync, Adaptive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tm.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error %v, want one wrapping context.Canceled", err)
	}
	if st.Now < cancelAt || st.Now > cancelAt+tsync {
		t.Fatalf("run stopped at %d, want within one TSync (%d) after the cancel at %d", st.Now, tsync, cancelAt)
	}
	if brd.steps != 0 {
		t.Fatalf("granted party stepped %d times; the only rendezvous came after the cancel and must grant nothing", brd.steps)
	}
}

// TestTrafficForcesRendezvous: however generous every promise is, routed
// traffic waiting for a granted party forces the next boundary to be a
// real rendezvous (the a-posteriori check behind elongation soundness).
func TestTrafficForcesRendezvous(t *testing.T) {
	const tsync, quanta = 100, 12
	producer := &fakeParty{name: "producer", la: cosim.UnboundedLookahead, tsync: tsync, emitEvery: 4, addr: 0x100}
	consumer := &fakeParty{name: "consumer", la: cosim.UnboundedLookahead}
	tm, err := New(Config{
		Parties:      []Party{{Fed: producer, Eager: true}, {Fed: consumer}},
		Links:        []Link{{From: 0, To: 1, Base: 0x100, Size: 0x10}},
		DriverConfig: hdlsim.DriverConfig{TSync: tsync, TotalCycles: quanta * tsync, Adaptive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Emissions at quanta 4, 8, 12 must each close their boundary.
	if st.Syncs < 3 {
		t.Fatalf("%d rendezvous for 3 traffic-bearing boundaries", st.Syncs)
	}
	if len(consumer.got) != 3 {
		t.Fatalf("consumer saw %d of 3 events", len(consumer.got))
	}
}

// TestEagerHaltMidQuantum: a clock-driving party stopping inside a
// quantum ends the run there, and the final partial grant settles every
// granted party at exactly the halt time.
func TestEagerHaltMidQuantum(t *testing.T) {
	const tsync = 100
	dev := &fakeParty{name: "dev", la: cosim.UnboundedLookahead, tsync: tsync, halt: 250}
	brd := &fakeParty{name: "board", la: cosim.UnboundedLookahead}
	tm, err := New(Config{
		Parties:      []Party{{Fed: dev, Eager: true}, {Fed: brd}},
		Links:        []Link{{From: 0, To: 1, Base: 0, Size: 0x10}},
		DriverConfig: hdlsim.DriverConfig{TSync: tsync, TotalCycles: 10 * tsync},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Now != 250 {
		t.Fatalf("federation time %d, want the halt point 250", st.Now)
	}
	if brd.cur != 250 {
		t.Fatalf("granted party settled at %d, want 250", brd.cur)
	}
}

// TestEagerHaltAtBoundary: a clock-driving party stopping exactly at a
// quantum boundary still gets that boundary's rendezvous, and no party
// is stepped past the halt.
func TestEagerHaltAtBoundary(t *testing.T) {
	const tsync = 100
	dev := &fakeParty{name: "dev", la: cosim.UnboundedLookahead, tsync: tsync, halt: 3 * tsync}
	brd := &fakeParty{name: "board", la: cosim.UnboundedLookahead}
	tm, err := New(Config{
		Parties:      []Party{{Fed: dev, Eager: true}, {Fed: brd}},
		Links:        []Link{{From: 0, To: 1, Base: 0, Size: 0x10}},
		DriverConfig: hdlsim.DriverConfig{TSync: tsync, TotalCycles: 10 * tsync},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Now != 3*tsync || st.Syncs != 3 {
		t.Fatalf("ended at %d after %d syncs, want %d after 3", st.Now, st.Syncs, 3*tsync)
	}
	if dev.steps != 3 || brd.steps != 3 || brd.cur != 3*tsync {
		t.Fatalf("steps dev %d board %d (board at %d), want 3/3 at %d", dev.steps, brd.steps, brd.cur, 3*tsync)
	}
}

// clockParty is a fakeParty fronting a board at a fixed cycle.
type clockParty struct {
	fakeParty
	cycle uint64
}

func (f *clockParty) BoardTime() (cycle, swTick uint64) { return f.cycle, 0 }

// TestStatsReportSlowestBoard: the run's stats carry the slowest board
// cycle acknowledged at the last rendezvous, which router.Run reports as
// the pairwise DriverStats.LastBoardCy.
func TestStatsReportSlowestBoard(t *testing.T) {
	const tsync, quanta = 100, 8
	dev := &fakeParty{name: "dev", la: cosim.UnboundedLookahead, tsync: tsync, emitEvery: 4, addr: 0x100}
	fast := &clockParty{fakeParty: fakeParty{name: "fast", la: cosim.UnboundedLookahead}, cycle: 9000}
	slow := &clockParty{fakeParty: fakeParty{name: "slow", la: cosim.UnboundedLookahead}, cycle: 700}
	tm, err := New(Config{
		Parties:      []Party{{Fed: dev, Eager: true}, {Fed: fast}, {Fed: slow}},
		Links:        []Link{{From: 0, To: 1, Base: 0x100, Size: 0x10}},
		DriverConfig: hdlsim.DriverConfig{TSync: tsync, TotalCycles: quanta * tsync, Adaptive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Syncs == 0 || st.Elided == 0 {
		t.Fatalf("schedule %d syncs / %d elided; want both kinds of boundary", st.Syncs, st.Elided)
	}
	if st.LastBoardCy != slow.cycle {
		t.Fatalf("stats report board cycle %d, want the slowest board's %d", st.LastBoardCy, slow.cycle)
	}
}

// TestUnroutedEventFails: an emitted event no link covers is a topology
// bug and must fail the run loudly, not vanish.
func TestUnroutedEventFails(t *testing.T) {
	producer := &fakeParty{name: "producer", la: cosim.UnboundedLookahead, tsync: 100, emitEvery: 1, addr: 0x900}
	consumer := &fakeParty{name: "consumer", la: cosim.UnboundedLookahead}
	tm, err := New(Config{
		Parties:      []Party{{Fed: producer, Eager: true}, {Fed: consumer}},
		Links:        []Link{{From: 0, To: 1, Base: 0x100, Size: 0x10}}, // 0x900 not covered
		DriverConfig: hdlsim.DriverConfig{TSync: 100, TotalCycles: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Run(context.Background()); err == nil {
		t.Fatal("unrouted event did not fail the run")
	}
}

// TestConfigValidate rejects incoherent federations with actionable
// errors.
func TestConfigValidate(t *testing.T) {
	ok := func() Config {
		a := &fakeParty{name: "a"}
		b := &fakeParty{name: "b"}
		return Config{
			Parties:      []Party{{Fed: a, Eager: true}, {Fed: b}},
			Links:        []Link{{From: 0, To: 1, Base: 0, Size: 0x10, IRQs: []uint8{3}}},
			DriverConfig: hdlsim.DriverConfig{TSync: 100, TotalCycles: 1000},
		}
	}
	if err := ok().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"one party", func(c *Config) { c.Parties = c.Parties[:1] }},
		{"zero tsync", func(c *Config) { c.TSync = 0 }},
		{"zero horizon", func(c *Config) { c.TotalCycles = 0 }},
		{"nil federate", func(c *Config) { c.Parties[1].Fed = nil }},
		{"duplicate name", func(c *Config) { c.Parties[1].Fed = &fakeParty{name: "a"} }},
		{"link out of range", func(c *Config) { c.Links[0].To = 7 }},
		{"self link", func(c *Config) { c.Links[0].To = 0 }},
		{"empty link", func(c *Config) { c.Links[0] = Link{From: 0, To: 1} }},
		{"overlapping windows", func(c *Config) {
			c.Links = append(c.Links, Link{From: 0, To: 1, Base: 0x8, Size: 0x10})
		}},
		{"duplicate irq", func(c *Config) {
			c.Links = append(c.Links, Link{From: 0, To: 1, Base: 0x100, Size: 0x10, IRQs: []uint8{3}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := ok()
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
			if _, err := New(c); err == nil {
				t.Fatal("New accepted an invalid config")
			}
		})
	}
}
