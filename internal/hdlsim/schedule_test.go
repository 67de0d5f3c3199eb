package hdlsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// grant is one rendezvous: acc ticks granted at time now, with the
// traffic landing lead ticks in.
type grant struct{ acc, lead, now uint64 }

// scriptedSide is a scripted clock-driving side and its peer: it halts
// itself at halt (0 = never), reports per-boundary elision inputs
// indexed by boundary number (time / tsync), and records every grant.
// Its StopEarly fires from time stopAt (0 = never): on the device's own
// clock, or — with boardFlag — once a rendezvous at or after stopAt has
// run, like a board-side "finished" flag.
type scriptedSide struct {
	tsync, halt, stopAt uint64
	boardFlag           bool
	traffic             []bool
	peer                []uint64

	cur    uint64
	board  bool
	grants []grant
	polls  int
}

func (f *scriptedSide) stopped() bool { return f.halt != 0 && f.cur >= f.halt }

func (f *scriptedSide) boundary() int {
	return int(f.cur/f.tsync) % len(f.traffic)
}

// bind returns cfg with StopEarly bound to this side (nil if it never
// stops early).
func (f *scriptedSide) bind(cfg DriverConfig) DriverConfig {
	if f.stopAt != 0 {
		cfg.StopEarly = f.stopEarly
	}
	return cfg
}

func (f *scriptedSide) stopEarly() bool {
	f.polls++
	if f.boardFlag {
		return f.board
	}
	return f.cur >= f.stopAt
}

func (f *scriptedSide) rendezvous(acc, lead uint64) {
	f.grants = append(f.grants, grant{acc, lead, f.cur})
	if f.stopAt != 0 && f.cur >= f.stopAt {
		f.board = true
	}
}

// Advance, Boundary and Rendezvous make the side a QuantumParty.
func (f *scriptedSide) Advance(until uint64) (uint64, bool, error) {
	if f.halt != 0 && until > f.halt {
		until = f.halt
	}
	f.cur = max(f.cur, until)
	return f.cur, f.stopped(), nil
}

func (f *scriptedSide) Boundary() (bool, uint64) {
	k := f.boundary()
	return f.traffic[k], f.peer[k]
}

func (f *scriptedSide) Rendezvous(acc, lead, now uint64) error {
	if now != f.cur {
		return fmt.Errorf("rendezvous at %d, clock-driving side at %d", now, f.cur)
	}
	f.rendezvous(acc, lead)
	return nil
}

// referenceSchedule is DriverSimulate's loop as it stood before the
// schedule was shared with the federation manager, cycle by cycle, with
// its own copy of the cap resolution (0 = no cap) and the elision
// predicate, each conjunct tagged with the reason its failure reports.
// Every grant's lead is the ticks elided before its last quantum. It is
// the independent reference RunSchedule must reproduce.
func referenceSchedule(cfg DriverConfig, f *scriptedSide) (st ScheduleStats) {
	maxQ := cfg.MaxQuantum
	if maxQ == 0 {
		maxQ = UnboundedLookahead
	}
	if maxQ < cfg.TSync {
		maxQ = cfg.TSync
	}
	sync := func(acc, lead uint64, why SyncReason) {
		f.rendezvous(acc, lead)
		st.Syncs++
		st.SyncsBy[why]++
	}
	pending, sinceSync := uint64(0), uint64(0)
	for f.cur < cfg.TotalCycles && !f.stopped() {
		f.cur++
		sinceSync++
		if sinceSync >= cfg.TSync {
			st.Quanta++
			acc := pending + sinceSync
			k := f.boundary()
			stopping := cfg.StopEarly != nil && cfg.StopEarly()
			// The conditions for eliding, in the order their reasons rank.
			conds := []struct {
				ok  bool
				why SyncReason
			}{
				{cfg.Adaptive, SyncPlain},
				{!f.traffic[k], SyncTraffic},
				{acc <= maxQ-cfg.TSync, SyncCap},
				{acc < f.peer[k], SyncPeer},
				{!stopping, SyncStopping},
			}
			elide, why := true, SyncReason(0)
			for _, c := range conds {
				if !c.ok {
					elide, why = false, c.why
					break
				}
			}
			if elide {
				pending = acc
				sinceSync = 0
				st.Elided++
			} else {
				sync(acc, pending, why)
				pending, sinceSync = 0, 0
				if cfg.StopEarly != nil && cfg.StopEarly() {
					break
				}
			}
		}
	}
	if pending+sinceSync > 0 {
		sync(pending+sinceSync, pending, SyncFinal)
	}
	st.Now = f.cur
	return st
}

// drawSchedule draws one random schedule and its script: quantum-aligned
// and ragged horizons, default, tiny and explicit caps, lookaheads on
// and around quantum multiples (where the strict peer comparison
// matters), sparse traffic, halts and StopEarly at random points. One
// draw in four is a long quiet adaptive run — hundreds of quanta, no
// traffic, unbounded promises — so only a cap, StopEarly or a halt can
// force a rendezvous before the end. side builds a fresh copy of the
// scripted side for each run.
func drawSchedule(rng *rand.Rand) (cfg DriverConfig, side func() *scriptedSide) {
	quiet := rng.Intn(4) == 0
	tsync := uint64(1 + rng.Intn(8))
	quanta := uint64(rng.Intn(80))
	if quiet {
		quanta = 100 + uint64(rng.Intn(400))
	}
	horizon := quanta * tsync
	if rng.Intn(2) == 0 {
		horizon += uint64(rng.Intn(int(tsync)))
	}
	cfg = DriverConfig{TSync: tsync, TotalCycles: horizon, Adaptive: quiet || rng.Intn(3) != 0}
	switch rng.Intn(3) {
	case 1:
		cfg.MaxQuantum = uint64(rng.Intn(int(8 * tsync)))
		if quiet {
			cfg.MaxQuantum = uint64(rng.Intn(int(80 * tsync)))
		}
	case 2:
		cfg.MaxQuantum = UnboundedLookahead
	}
	n := int(quanta) + 1
	traffic := make([]bool, n)
	peer := make([]uint64, n)
	for k := range traffic {
		if quiet {
			peer[k] = UnboundedLookahead
			continue
		}
		traffic[k] = rng.Intn(5) == 0
		switch rng.Intn(4) {
		case 0:
			peer[k] = UnboundedLookahead
		case 1:
			peer[k] = uint64(rng.Intn(int(12 * tsync)))
		default:
			peer[k] = uint64(rng.Intn(12)) * tsync
		}
	}
	var halt, stopAt uint64
	if horizon > 0 && rng.Intn(3) == 0 {
		halt = 1 + uint64(rng.Int63n(int64(horizon)))
		if rng.Intn(2) == 0 {
			halt = (halt + tsync - 1) / tsync * tsync // at a boundary
		}
	}
	if horizon > 0 && rng.Intn(2) == 0 {
		stopAt = 1 + uint64(rng.Int63n(int64(horizon)))
	}
	boardFlag := rng.Intn(2) == 0
	return cfg, func() *scriptedSide {
		return &scriptedSide{tsync: tsync, halt: halt, stopAt: stopAt, boardFlag: boardFlag,
			traffic: traffic, peer: peer}
	}
}

// TestScheduleMatchesDriverReference is the property test behind the
// shared schedule: over seeded random TSync, horizons, caps, adaptive
// on and off, scripted lookaheads and traffic, halts and StopEarly,
// RunSchedule grants exactly what the pre-sharing DriverSimulate loop
// granted, leads included, with the same counters — the per-reason sync
// counts included — and final time, and polls StopEarly exactly once
// per boundary. Every lead is the last boundary passed minus the
// previous grant: acc − TSync at a boundary rendezvous, and for the
// final partial grant the boundary it started after. Every reason occurs, and an uncapped quiet run elongates
// past 64×TSync, the cap that used to be the default.
func TestScheduleMatchesDriverReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var elided, halted, stopped, longGrants uint64
	var byReason [NumSyncReasons]uint64
	for i := 0; i < 4000; i++ {
		cfg, side := drawSchedule(rng)
		ref, got := side(), side()
		desc := fmt.Sprintf("%+v halt=%d stopAt=%d boardFlag=%v", cfg, got.halt, got.stopAt, got.boardFlag)
		want := referenceSchedule(ref.bind(cfg), ref)
		st, err := RunSchedule(got.bind(cfg), got)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, desc, err)
		}
		if !slices.Equal(got.grants, ref.grants) {
			t.Fatalf("case %d (%s): grants\n got %v\nwant %v", i, desc, got.grants, ref.grants)
		}
		if st.Quanta != want.Quanta || st.Syncs != want.Syncs || st.Elided != want.Elided {
			t.Fatalf("case %d (%s): quanta/syncs/elided %d/%d/%d, reference %d/%d/%d", i, desc, st.Quanta, st.Syncs, st.Elided, want.Quanta, want.Syncs, want.Elided)
		}
		if st.Now != want.Now || got.cur != ref.cur {
			t.Fatalf("case %d (%s): final time %d (side %d), reference %d", i, desc, st.Now, got.cur, ref.cur)
		}
		sum := uint64(0)
		for _, n := range st.SyncsBy {
			sum += n
		}
		if sum != st.Syncs {
			t.Fatalf("case %d (%s): SyncsBy %v sums to %d, Syncs %d", i, desc, st.SyncsBy, sum, st.Syncs)
		}
		if st.SyncsBy != want.SyncsBy {
			t.Fatalf("case %d (%s): SyncsBy %v, reference %v", i, desc, st.SyncsBy, want.SyncsBy)
		}
		for j, g := range got.grants {
			wantLead := g.acc - cfg.TSync
			if j == len(got.grants)-1 && st.SyncsBy[SyncFinal] == 1 {
				wantLead = g.now/cfg.TSync*cfg.TSync - (g.now - g.acc)
			}
			if g.lead != wantLead {
				t.Fatalf("case %d (%s): grant %d %+v has lead %d, want %d", i, desc, j, g, g.lead, wantLead)
			}
		}
		if got.stopAt != 0 && uint64(got.polls) != st.Quanta {
			t.Fatalf("case %d (%s): StopEarly polled %d times at %d boundaries", i, desc, got.polls, st.Quanta)
		}
		elided += st.Elided
		for r, n := range st.SyncsBy {
			byReason[r] += n
		}
		if cfg.MaxQuantum == 0 && slices.ContainsFunc(got.grants, func(g grant) bool { return g.acc > 64*cfg.TSync }) {
			longGrants++
		}
		if ref.stopped() && ref.cur < cfg.TotalCycles {
			halted++
		}
		if got.stopAt != 0 && ref.cur < cfg.TotalCycles && !ref.stopped() {
			stopped++
		}
	}
	if elided == 0 || halted == 0 || stopped == 0 || longGrants == 0 {
		t.Fatalf("draws never exercised elision (%d), halts (%d), StopEarly (%d) or uncapped elongation past 64×TSync (%d)", elided, halted, stopped, longGrants)
	}
	for r, n := range byReason {
		if n == 0 {
			t.Fatalf("no draw synced for reason %v (counts %v)", SyncReason(r), byReason)
		}
	}
}

// TestScheduleRejectsZeroTSync: the one TSync check, shared by
// DriverSimulate and the federation manager.
func TestScheduleRejectsZeroTSync(t *testing.T) {
	if _, err := RunSchedule(DriverConfig{TotalCycles: 10}, &scriptedSide{tsync: 1}); err == nil {
		t.Fatal("TSync=0 accepted")
	}
}

// TestScheduleLead pins the lead of the three kinds of rendezvous an
// elongated run ends a grant with: traffic at a boundary, the final
// partial grant after a mid-quantum halt, and StopEarly at a boundary
// that could have been elided. Each lands the grant's traffic at the
// last boundary passed.
func TestScheduleLead(t *testing.T) {
	const tsync = 10
	quiet := func(traffic ...int) *scriptedSide {
		f := &scriptedSide{tsync: tsync, traffic: make([]bool, 11), peer: make([]uint64, 11)}
		for k := range f.peer {
			f.peer[k] = UnboundedLookahead
		}
		for _, k := range traffic {
			f.traffic[k] = true
		}
		return f
	}
	cases := []struct {
		name string
		side *scriptedSide
		want grant
		why  SyncReason
	}{
		{"traffic at a boundary", quiet(3), grant{acc: 30, lead: 20, now: 30}, SyncTraffic},
		{"final grant after a halt", func() *scriptedSide { f := quiet(); f.halt = 35; return f }(), grant{acc: 35, lead: 30, now: 35}, SyncFinal},
		{"StopEarly at an elidable boundary", func() *scriptedSide { f := quiet(); f.stopAt = 40; return f }(), grant{acc: 40, lead: 30, now: 40}, SyncStopping},
	}
	for _, c := range cases {
		st, err := RunSchedule(c.side.bind(DriverConfig{TSync: tsync, TotalCycles: 100, Adaptive: true}), c.side)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(c.side.grants) == 0 || c.side.grants[0] != c.want {
			t.Fatalf("%s: grants %+v, want first %+v", c.name, c.side.grants, c.want)
		}
		if st.SyncsBy[c.why] == 0 {
			t.Fatalf("%s: no rendezvous for reason %v (%v)", c.name, c.why, st.SyncsBy)
		}
	}
}
