package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/cosim"
	"repro/internal/farm"
	"repro/internal/router"
)

// workload is one fixed shape of co-simulation runs. Its inputs are drawn
// from the seed; run i executes inputs[i%len(inputs)].
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop callers; only the farm has more
	// than one. The invocation runs with as many Go processors as clients:
	// the two sides of one run take turns, and on a 2-vCPU VM handing
	// each turn to the other CPU made the medians of repeated invocations
	// spread far wider than their bounds (see README.md).
	clients int
	// traced marks the pairwise workloads, whose link the bench builds
	// itself so it can time the stack's top and base from outside.
	traced bool
	inputs func(tbSeeds []int64, scale float64) []input
}

// input is one run's configuration. Exactly one of the three shapes is
// used: a farm spec, a federation topology, or a plain pairwise run.
type input struct {
	key  string // names the reference run this input must reproduce
	rc   router.RunConfig
	fed  *router.FederationConfig
	spec *farm.SessionSpec
}

// tbSeedCount is how many testbench seeds each workload cycles through.
const tbSeedCount = 4

var workloads = []*workload{
	{
		name:    "router-compute",
		why:     "In-process at the paper's 100%-accuracy point (TSync=1000): HDL kernel and board/RTOS/ISS compute dominate, the link is a few percent.",
		clients: 1,
		traced:  true,
		inputs: func(tbSeeds []int64, scale float64) []input {
			return pairwiseInputs(tbSeeds, func(rc *router.RunConfig) {
				rc.TSync = 1000
				rc.TB.PacketsPerPort = scaled(250, scale)
			})
		},
	},
	{
		name:    "lockstep-tcp",
		why:     "A rendezvous every cycle (TSync=1) over the bare TCP link, Fig. 6's left end: transport, codec and quantum-loop cost dominate.",
		clients: 1,
		traced:  true,
		inputs: func(tbSeeds []int64, scale float64) []input {
			return pairwiseInputs(tbSeeds, func(rc *router.RunConfig) {
				rc.TSync = 1
				rc.Transport = router.TransportTCP
				rc.TB.PacketsPerPort = scaled(1, scale)
				rc.TB.Period = 5000
			})
		},
	},
	{
		name:    "adaptive-stack-tcp",
		why:     "TCP at TSync=1 with adaptive elision, batching and the session layer: few batched, acked frames, so decorator and elision cost show.",
		clients: 1,
		traced:  true,
		inputs: func(tbSeeds []int64, scale float64) []input {
			return pairwiseInputs(tbSeeds, func(rc *router.RunConfig) {
				rc.TSync = 1
				rc.Transport = router.TransportTCP
				rc.TB.PacketsPerPort = scaled(15, scale)
				rc.TB.Period = 10000
				rc.Adaptive = true
				rc.Batch = true
				sess := cosim.DefaultSessionConfig()
				rc.Resilience = &sess
			})
		},
	},
	{
		name:    "federation-pulse",
		why:     "Two boards and two pulse kernels under the N-party time manager (TSync=100): the only workload its scheduler drives.",
		clients: 1,
		inputs: func(tbSeeds []int64, scale float64) []input {
			ins := pairwiseInputs(tbSeeds, func(rc *router.RunConfig) {
				rc.TSync = 100
				rc.TB.PacketsPerPort = scaled(100, scale)
			})
			for i := range ins {
				ins[i].fed = &router.FederationConfig{Boards: 2, PulseDevices: 2}
			}
			return ins
		},
	},
	{
		name:    "farm-sweep",
		why:     "Two closed-loop clients on a 2-worker farm submitting short TCP session specs: spec lowering, mux attach and per-session set-up dominate.",
		clients: 2,
		inputs:  farmInputs,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// drawTBSeeds draws the testbench seeds of one benchmark seed.
func drawTBSeeds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, tbSeedCount)
	for i := range out {
		out[i] = 1 + rng.Int63n(1<<31)
	}
	return out
}

// scaled shrinks a packet count for the self-test; it never reaches 0.
func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale+0.5))
}

func pairwiseInputs(tbSeeds []int64, shape func(*router.RunConfig)) []input {
	out := make([]input, len(tbSeeds))
	for i, s := range tbSeeds {
		rc := router.DefaultRunConfig()
		shape(&rc)
		rc.TB.Seed = s
		out[i] = input{key: fmt.Sprintf("tb=%d", s), rc: rc}
	}
	return out
}

var farmTSyncs = []uint64{100, 1000, 4000}

// farmInputs builds the farm's spec cycle: every TB seed × TSync pair,
// each once bare and once on a batched, resilient link, alternating so
// every second spec is decorated.
func farmInputs(tbSeeds []int64, scale float64) []input {
	out := make([]input, 2*len(farmTSyncs)*len(tbSeeds))
	for i := range out {
		tb := tbSeeds[(i/(2*len(farmTSyncs)))%len(tbSeeds)]
		ts := farmTSyncs[i%len(farmTSyncs)]
		spec := farm.SessionSpec{
			Transport: "tcp",
			TSync:     ts,
			TB:        &farm.TBSpec{PacketsPerPort: scaled(10, scale), Seed: tb},
		}
		if i%2 == 1 {
			spec.Batch = true
			spec.Resilience = &farm.ResilienceSpec{}
		}
		rc, err := spec.RunConfig()
		if err != nil {
			panic(err) // the specs above are constant shapes; only a bug rejects them
		}
		out[i] = input{key: fmt.Sprintf("tb=%d/tsync=%d", tb, ts), rc: rc, spec: &spec}
	}
	return out
}

// plain is the reference form of a configuration: the same testbench and
// TSync, in process, with no decorators and no adaptive elision.
func plain(rc router.RunConfig) router.RunConfig {
	rc.Transport = router.TransportInProc
	rc.Adaptive, rc.MaxQuantum, rc.Batch = false, 0, false
	rc.Resilience, rc.Chaos, rc.LinkDelay = nil, nil, 0
	return rc
}

// fingerprint is every simulated statistic a speed-only change must leave
// identical. Boundaries adds elided boundaries back, so adaptive and plain
// runs of one configuration agree.
type fingerprint struct {
	SimCycles    uint64
	Boundaries   uint64
	DataIn       uint64
	DataOut      uint64
	Interrupts   uint64
	Router       router.Stats
	Consumers    router.ConsumerStats
	App          router.AppStats
	Generated    uint64
	BoardCycles  uint64
	BoardSWTicks uint64
	PulseSent    []uint64
	PulseSeen    []uint64
}

// outcome is what one run returns to the measurement loops.
type outcome struct {
	res       router.RunResult
	pulseSent []uint64
	pulseSeen []uint64
	quanta    uint64 // federation boundaries passed
	elided    uint64 // federation boundaries elided
}

func (o outcome) digest() string {
	r := o.res
	fp := fingerprint{
		SimCycles:    r.SimCycles,
		Boundaries:   r.HW.SyncEvents + r.HW.SyncsElided,
		DataIn:       r.HW.DataIn,
		DataOut:      r.HW.DataOut,
		Interrupts:   r.HW.Interrupts,
		Router:       r.Router,
		Consumers:    r.Consumers,
		App:          r.App,
		Generated:    r.Generated,
		BoardCycles:  r.BoardCycles,
		BoardSWTicks: r.BoardSWTicks,
		PulseSent:    o.pulseSent,
		PulseSeen:    o.pulseSeen,
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", fp)))
	return hex.EncodeToString(sum[:8])
}
