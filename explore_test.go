package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cosim"
	"repro/internal/farm"
	"repro/internal/router"
)

// TestExplore is the co-simulation's determinism gate. It draws
// farm.SessionSpecs from seeded generators over the configuration space
// (transport, TSync, testbench, sync mode, adaptive elision, batching,
// chaos under the session layer, link delay, federation topology, app
// timing) and runs each spec twice beside its reference: the same spec
// with everything stripped that cannot move a simulated bit (see
// exploreReference). Every run must reproduce the reference's
// fingerprint, and the rendezvous, conservation, pulse, transport and
// goroutine invariants of exploreSpec must hold.
//
// The specs in testdata/explorer/*.json run first, every time: the fixed
// configurations of earlier soaks and every failing spec the explorer has
// printed. Each invocation then draws a fixed block of seeds (a smaller
// one under -short), and each -count repetition draws the next block, so
// a deeper search is just a larger -count. A failing spec prints as one
// JSON line; saved under testdata/explorer/ it replays as a pinned spec.
func TestExplore(t *testing.T) {
	block := exploreBlock
	if testing.Short() {
		block = exploreShortBlock
	}
	first := exploreSeedBase + int64(exploreRound*block)
	exploreRound++

	pinned, err := filepath.Glob(filepath.Join("testdata", "explorer", "*.json"))
	if err != nil || len(pinned) == 0 {
		t.Fatalf("no pinned specs under testdata/explorer (%v)", err)
	}
	var cov exploreCoverage
	ran, total := 0, len(pinned)+block
	for _, path := range pinned {
		name := "pinned/" + strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			ran++
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := farm.ParseSpec(data)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if spec.Transport == "shm" && !cosim.ShmSupported() {
				t.Skip("shm transport unsupported on this platform")
			}
			exploreSpec(t, name, spec, &cov)
		})
	}
	for i := 0; i < block; i++ {
		seed := first + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ran++
			exploreSpec(t, fmt.Sprintf("seed %d", seed), drawSpec(seed), &cov)
		})
	}
	if ran < total {
		t.Logf("%d of %d specs filtered out; budget coverage not checked", total-ran, total)
		return
	}
	cov.check(t)
}

const (
	exploreBlock      = 24
	exploreShortBlock = 8
	exploreSeedBase   = 20261019
	// exploreDeadline bounds each run, so a hang fails naming its spec.
	exploreDeadline = time.Minute
)

// exploreRound counts TestExplore invocations in this process; each
// -count repetition draws the block after the previous one.
var exploreRound int

// drawSpec draws the spec of one seed. Consecutive seeds take the
// transports in turn, so every block of four or more runs each one. Every
// draw must lower and round-trip: a rejected draw is a bug in the
// generator.
func drawSpec(seed int64) farm.SessionSpec {
	rng := rand.New(rand.NewSource(seed))
	chance := func(p float64) bool { return rng.Float64() < p }
	oneOf := func(xs ...uint64) uint64 { return xs[rng.Intn(len(xs))] }
	transports := []string{"inproc", "tcp", "uds"}
	if cosim.ShmSupported() {
		transports = append(transports, "shm")
	}
	s := farm.SessionSpec{Transport: transports[seed%int64(len(transports))]}
	switch r := rng.Float64(); {
	case r < 0.2:
		s.TSync = 1
	case r < 0.45:
		s.TSync = uint64(3 + 2*rng.Intn(15)) // odd, 3–31
	case r < 0.7:
		s.TSync = uint64(32 + rng.Intn(369))
	default:
		s.TSync = uint64(401 + rng.Intn(3600))
	}
	tb := &farm.TBSpec{
		PacketsPerPort: 1 + rng.Intn(6),
		Period:         oneOf(1337, 10000, uint64(101+2*rng.Intn(1500))),
		DataWords:      1 + rng.Intn(12),
		Seed:           1 + rng.Int63n(1<<40),
	}
	if chance(0.3) {
		tb.ErrRate = 0.1 * float64(1+rng.Intn(3))
	}
	if chance(0.3) {
		tb.MulticastRate = 0.1 * float64(1+rng.Intn(3))
	}
	s.TB = tb
	if chance(0.25) {
		s.Federation = &router.FederationConfig{Boards: 1 + rng.Intn(2), InProcBoards: chance(0.4), PulseDevices: rng.Intn(3)}
	}
	wire := s.Federation == nil || !s.Federation.InProcBoards
	s.Adaptive = chance(0.45)
	if !s.Adaptive && wire && chance(0.35) {
		s.Mode = "pipelined"
	}
	if wire {
		s.Batch = chance(0.4)
		if chance(0.3) {
			s.Resilience = &farm.ResilienceSpec{RetransmitTimeoutMS: 5 + rng.Int63n(6)}
			if chance(0.6) {
				rate := func() float64 { return float64(rng.Intn(4)) / 100 }
				s.Chaos = &farm.ChaosSpec{Seed: rng.Int63(), Drop: rate(), Duplicate: rate(), Reorder: rate(), Corrupt: rate(), Truncate: rate()}
			}
		}
		if chance(0.1) {
			s.LinkDelayUS = 10 + rng.Int63n(91)
		}
	}
	if chance(0.3) {
		s.App = &farm.AppSpec{Timing: "annotated"}
	}
	if chance(0.3) {
		if s.App == nil {
			s.App = &farm.AppSpec{}
		}
		s.App.WatchdogTimeout = oneOf(1, 7, 50, 1000)
	}

	// Size the draw by what its rendezvous cost. The reference steps
	// every boundary in process; the drawn run steps them over its link,
	// unless elision leaves about one rendezvous per packet. An
	// over-sized draw keeps its workload and gets a larger TSync.
	refCap, linkCap := uint64(25000), uint64(25000)
	switch {
	case s.Chaos != nil:
		linkCap = 300
	case !wire || s.Transport == "inproc":
	case s.Transport == "shm":
		linkCap = 8000
	default:
		linkCap = 3000
	}
	if s.LinkDelayUS > 0 {
		linkCap = min(linkCap, 100) // a delayed message sleeps up to a scheduler tick
	}
	if s.Federation != nil {
		div := uint64(s.Federation.Boards * (1 + s.Federation.PulseDevices))
		refCap, linkCap = refCap/div, linkCap/div
	}
	work := uint64(tb.PacketsPerPort+1)*tb.Period + 2000
	if s.Adaptive && (s.Federation == nil || s.Federation.PulseDevices == 0) && 8*uint64(tb.PacketsPerPort)+16 <= linkCap {
		linkCap = refCap
	}
	s.TSync = max(s.TSync, work/refCap|1, work/linkCap|1)
	if s.Adaptive && chance(0.3) {
		s.MaxQuantum = s.TSync * (2 + uint64(rng.Intn(19)))
	}
	return s
}

// exploreReference is s with everything stripped that the docs say
// cannot move a simulated bit: the link becomes in-process and bare (no
// delay, chaos, session or batching), elision is off, and in-process
// boards become wire boards. Testbench, TSync, mode, board, app and
// topology stay.
func exploreReference(s farm.SessionSpec) farm.SessionSpec {
	s.Transport, s.LinkDelayUS, s.Chaos, s.Resilience, s.Batch = "", 0, nil, nil, false
	s.Adaptive, s.MaxQuantum = false, 0
	if s.Federation != nil {
		fc := *s.Federation
		fc.InProcBoards = false
		s.Federation = &fc
	}
	return s
}

// exploreFingerprint is every simulated result a run must reproduce.
type exploreFingerprint struct {
	Router                      router.Stats
	Consumers                   router.ConsumerStats
	Apps                        []router.AppStats
	BoardCycles                 []uint64
	BoardSWTicks                uint64
	Generated                   uint64
	SimCycles                   uint64
	DataIn, DataOut, Interrupts uint64
	PulseSent, PulseSeen        []uint64
}

func fingerprintOf(r router.FederationResult) exploreFingerprint {
	return exploreFingerprint{
		Router: r.Router, Consumers: r.Consumers, Apps: r.Apps, BoardCycles: r.BoardCycles,
		BoardSWTicks: r.BoardSWTicks, Generated: r.Generated, SimCycles: r.SimCycles,
		DataIn: r.HW.DataIn, DataOut: r.HW.DataOut, Interrupts: r.HW.Interrupts,
		PulseSent: r.PulseSent, PulseSeen: r.PulseSeen,
	}
}

// runExplored runs rc through router.RunFederation when it has a
// topology and through router.Run otherwise, under exploreDeadline.
func runExplored(rc router.RunConfig) (router.FederationResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), exploreDeadline)
	defer cancel()
	if rc.Federation != nil {
		return router.RunFederation(ctx, *rc.Federation, router.WithConfig(rc))
	}
	res, err := router.Run(ctx, router.Transports{}, router.WithConfig(rc))
	return router.FederationResult{RunResult: res, Apps: []router.AppStats{res.App}, BoardCycles: []uint64{res.BoardCycles}}, err
}

// exploreSpec runs spec twice and its reference once, concurrently, and
// checks every per-spec invariant. A failure names the spec and prints
// it as one JSON line.
func exploreSpec(t *testing.T, name string, spec farm.SessionSpec, cov *exploreCoverage) {
	line, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s\nreplay by saving this line as testdata/explorer/<name>.json:\n%s", name, fmt.Sprintf(format, args...), line)
	}
	if back, err := farm.ParseSpec(line); err != nil || !reflect.DeepEqual(back, spec) {
		fail("spec does not round-trip through JSON: %v\n%+v", err, back)
	}
	rc, err := spec.RunConfig()
	if err != nil {
		fail("spec does not lower: %v", err)
	}
	refRC, err := exploreReference(spec).RunConfig()
	if err != nil {
		fail("reference does not lower: %v", err)
	}

	before := runtime.NumGoroutine()
	var res [3]router.FederationResult // drawn, again, reference
	var errs [3]error
	var wg sync.WaitGroup
	for i, c := range []router.RunConfig{rc, rc, refRC} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = runExplored(c)
		}()
	}
	wg.Wait()
	for i, what := range []string{"run", "second run", "reference"} {
		if errs[i] != nil {
			fail("%s: %v", what, errs[i])
		}
		if res[i].Conservation != nil {
			fail("%s: %v", what, res[i].Conservation)
		}
	}
	got, again, ref := res[0], res[1], res[2]
	if want, fp := fingerprintOf(ref), fingerprintOf(got); !reflect.DeepEqual(fp, want) {
		fail("fingerprint differs from the reference\nreference %+v\nrun       %+v", want, fp)
	}
	if want, fp := fingerprintOf(got), fingerprintOf(again); !reflect.DeepEqual(fp, want) {
		fail("fingerprint differs between two runs\nfirst  %+v\nsecond %+v", want, fp)
	}
	if !slices.Equal(got.PulseSent, got.PulseSeen) {
		fail("pulse devices sent %v heartbeats, board 0 saw %v", got.PulseSent, got.PulseSeen)
	}
	wantKind := rc.Transport
	if rc.Federation != nil && rc.Federation.InProcBoards {
		wantKind = router.TransportInProc
	}
	if got.TransportKind != wantKind {
		fail("result reports transport %v, want %v", got.TransportKind, wantKind)
	}
	for _, r := range []router.FederationResult{got, again} {
		if ref.HW.SyncEvents != r.HW.SyncEvents+r.HW.SyncsElided {
			fail("reference took %d rendezvous, run %d + %d elided", ref.HW.SyncEvents, r.HW.SyncEvents, r.HW.SyncsElided)
		}
		if !spec.Adaptive && r.HW.SyncsElided != 0 {
			fail("run without Adaptive elided %d boundaries", r.HW.SyncsElided)
		}
		if spec.Chaos == nil && r.Link.Link.FramesInjured != 0 {
			fail("clean link injured %d frames", r.Link.Link.FramesInjured)
		}
	}
	if ref.Link.Link.FramesInjured != 0 {
		fail("reference link injured %d frames", ref.Link.Link.FramesInjured)
	}
	if n := settleGoroutines(before); n > before {
		var dump strings.Builder
		pprof.Lookup("goroutine").WriteTo(&dump, 1)
		fail("%d goroutines before the spec, %d after\n%s", before, n, dump.String())
	}
	t.Logf("%s: %d rendezvous + %d elided, %d injured, %d retransmits", line,
		got.HW.SyncEvents, got.HW.SyncsElided, got.Link.Link.FramesInjured, got.Link.Link.Retransmits)
	cov.record(spec, got)
}

// settleGoroutines waits up to a second for the goroutine count to fall
// to want, returning the last count seen.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for end := time.Now().Add(time.Second); n > want && time.Now().Before(end); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// exploreCoverage is what a budget must have exercised to mean anything.
type exploreCoverage struct {
	transports                               map[router.TransportKind]bool
	pipelined, elided, healed, soak, pulsing bool
}

func (c *exploreCoverage) record(spec farm.SessionSpec, r router.FederationResult) {
	if c.transports == nil {
		c.transports = make(map[router.TransportKind]bool)
	}
	c.transports[r.TransportKind] = true
	c.pipelined = c.pipelined || spec.Mode == "pipelined"
	c.elided = c.elided || r.HW.SyncsElided > 0
	healed := r.Link.Link.FramesInjured > 0 && r.Link.Link.Retransmits > 0
	c.healed = c.healed || healed
	c.soak = c.soak || (healed && r.HW.SyncEvents >= 1000)
	for _, n := range r.PulseSent {
		c.pulsing = c.pulsing || n > 0
	}
}

func (c *exploreCoverage) check(t *testing.T) {
	var missing []string
	kinds := []router.TransportKind{router.TransportInProc, router.TransportTCP, router.TransportUDS}
	if cosim.ShmSupported() {
		kinds = append(kinds, router.TransportShm)
	}
	for _, k := range kinds {
		if !c.transports[k] {
			missing = append(missing, "the "+k.String()+" transport")
		}
	}
	for _, m := range []struct {
		ok   bool
		what string
	}{
		{c.pipelined, "pipelined mode"},
		{c.elided, "an adaptive run that elided a boundary"},
		{c.healed, "chaos that injured frames the session retransmitted"},
		{c.soak, "a chaos soak of at least 1000 rendezvous"},
		{c.pulsing, "a federation whose pulse devices beat"},
	} {
		if !m.ok {
			missing = append(missing, m.what)
		}
	}
	if len(missing) > 0 {
		t.Errorf("the budget never exercised: %s", strings.Join(missing, "; "))
	}
}

// TestCoSimDeterminismProperty is the headline property at fixed seeds,
// beside TestExplore's search: eight configurations (seed, TSync
// 50–4050, workload, error rate, mode) run over tcp must reproduce
// themselves and their in-process reference bit for bit, under every
// invariant of exploreSpec.
func TestCoSimDeterminismProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run property; skipped in -short")
	}
	rng := rand.New(rand.NewSource(20260705))
	for trial := 0; trial < 8; trial++ {
		s := farm.SessionSpec{Transport: "tcp", TB: &farm.TBSpec{
			PacketsPerPort: 3 + rng.Intn(10),
			Period:         uint64(200 + rng.Intn(1200)),
			DataWords:      1 + rng.Intn(12),
			ErrRate:        float64(rng.Intn(4)) * 0.1,
			Seed:           rng.Int63(),
		}}
		s.TSync = uint64(50 + rng.Intn(4000))
		if rng.Intn(2) == 0 {
			s.Mode = "pipelined"
		}
		exploreSpec(t, fmt.Sprintf("trial %d", trial), s, &exploreCoverage{})
	}
}

// TestTransportMatrixDeterminism is the transport matrix at fixed seeds:
// every transport carries the same drawn configurations, and each run
// must match the in-process reference bit for bit and in rendezvous
// count, and report the kind that carried it.
func TestTransportMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run matrix; skipped in -short")
	}
	kinds := []string{"inproc", "tcp", "uds"}
	if cosim.ShmSupported() {
		kinds = append(kinds, "shm")
	}
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 4; trial++ {
		s := farm.SessionSpec{TB: &farm.TBSpec{
			PacketsPerPort: 3 + rng.Intn(8),
			Period:         uint64(200 + rng.Intn(1200)),
			DataWords:      1 + rng.Intn(12),
			Seed:           rng.Int63(),
		}}
		s.TSync = uint64(50 + rng.Intn(2000))
		if rng.Intn(2) == 0 {
			s.Mode = "pipelined"
		}
		for _, k := range kinds {
			s.Transport = k
			exploreSpec(t, fmt.Sprintf("trial %d over %s", trial, k), s, &exploreCoverage{})
		}
	}
}
