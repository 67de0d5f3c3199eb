package router

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cosim"
)

func TestRunConfigValidate(t *testing.T) {
	ok := DefaultRunConfig()
	if err := ok.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*RunConfig)
		want   string // substring the actionable error must contain
	}{
		{"zero tsync", func(rc *RunConfig) { rc.TSync = 0 }, "TSync"},
		{"negative link delay", func(rc *RunConfig) { rc.LinkDelay = -1 }, "LinkDelay"},
		{"chaos without resilience", func(rc *RunConfig) {
			sc := cosim.UniformScenario(1, cosim.FaultProfile{Drop: 0.1})
			rc.Chaos = &sc
			rc.Resilience = nil
		}, "Chaos without Resilience"},
		{"unknown transport", func(rc *RunConfig) { rc.Transport = TransportKind(99) }, "TransportKind"},
		{"adaptive with pipelined acks", func(rc *RunConfig) {
			rc.Adaptive = true
			rc.Mode = cosim.SyncPipelined
		}, "Adaptive with SyncPipelined"},
		// Without a wire no second grant is ever in flight: the pair
		// ran alternating while its result read pipelined.
		{"pipelined with in-process boards", func(rc *RunConfig) {
			rc.Mode = cosim.SyncPipelined
			rc.Federation = &FederationConfig{Boards: 1, InProcBoards: true}
		}, "SyncPipelined with InProcBoards"},
		// A cap without Adaptive did nothing, and one below TSync was
		// quietly raised to TSync; both are now errors naming the field.
		{"max quantum without adaptive", func(rc *RunConfig) { rc.MaxQuantum = 64 * rc.TSync }, "MaxQuantum"},
		{"max quantum below tsync", func(rc *RunConfig) {
			rc.Adaptive = true
			rc.MaxQuantum = rc.TSync - 1
		}, "MaxQuantum"},
		// A TSync huge enough to wrap the derived budget (WorkCycles +
		// 8×TSync + slack) used to be accepted and silently truncated the
		// run; it must be an explicit, actionable error.
		{"tsync overflows budget", func(rc *RunConfig) { rc.TSync = math.MaxUint64 / 4 }, "overflows the derived cycle budget"},
		{"tsync overflows budget exactly", func(rc *RunConfig) {
			work := rc.TB.WorkCycles()
			rc.TSync = (math.MaxUint64-20000-work)/8 + 1
		}, "overflows the derived cycle budget"},
		{"grant tick product overflows", func(rc *RunConfig) {
			rc.BoardCfg.CyclesPerGrantTick = math.MaxUint64 / 2
		}, "CyclesPerGrantTick"},
		// Validate used to skip the topology, so a farm admitted a
		// broken federation and failed it later on a worker.
		{"federation without boards", func(rc *RunConfig) {
			rc.Federation = &FederationConfig{Boards: 0}
		}, "at least one board"},
		{"federation past the interrupt vector", func(rc *RunConfig) {
			rc.Federation = &FederationConfig{Boards: 28}
		}, "interrupt line"},
		// Negative session tuning used to be replaced by the defaults
		// without a word; each is now an error naming the field.
		{"negative retransmit timeout", func(rc *RunConfig) {
			rc.Resilience = &cosim.SessionConfig{RetransmitTimeout: -5 * time.Millisecond}
		}, "RetransmitTimeout -5ms"},
		{"negative heartbeat interval", func(rc *RunConfig) {
			rc.Resilience = &cosim.SessionConfig{HeartbeatInterval: -time.Millisecond}
		}, "HeartbeatInterval"},
		{"negative heartbeat miss", func(rc *RunConfig) { rc.Resilience = &cosim.SessionConfig{HeartbeatMiss: -3} }, "HeartbeatMiss"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := DefaultRunConfig()
			tc.mutate(&rc)
			err := rc.Validate()
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the problem (%q)", err, tc.want)
			}
			// Run must reject it up front, before any run starts.
			if _, err := Run(context.Background(), Transports{}, WithConfig(rc)); err == nil {
				t.Fatal("Run accepted an invalid config")
			}
		})
	}

	// A cap of exactly TSync, or none, is coherent on an adaptive run.
	for _, maxQ := range []uint64{0, ok.TSync} {
		rc := DefaultRunConfig()
		rc.Adaptive, rc.MaxQuantum = true, maxQ
		if err := rc.Validate(); err != nil {
			t.Fatalf("adaptive MaxQuantum %d rejected: %v", maxQ, err)
		}
	}

	// Chaos paired with resilience is coherent.
	rc := DefaultRunConfig()
	sc := cosim.UniformScenario(1, cosim.FaultProfile{Drop: 0.1})
	sess := cosim.DefaultSessionConfig()
	rc.Chaos = &sc
	rc.Resilience = &sess
	if err := rc.Validate(); err != nil {
		t.Fatalf("chaos+resilience rejected: %v", err)
	}
}

// TestRunClosesTransportsOnInvalidConfig proves the session-reusable
// entry point releases caller-established transports even when it
// rejects the config.
func TestRunClosesTransportsOnInvalidConfig(t *testing.T) {
	hwT, boardT := cosim.NewInProcPair(4)
	rc := DefaultRunConfig()
	rc.TSync = 0
	if _, err := Run(context.Background(), Transports{HW: hwT, Board: boardT}, WithConfig(rc)); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := hwT.Recv(cosim.ChanInt); err != cosim.ErrClosed {
		t.Fatalf("hw transport not closed after rejection: %v", err)
	}
	if _, err := boardT.Recv(cosim.ChanInt); err != cosim.ErrClosed {
		t.Fatalf("board transport not closed after rejection: %v", err)
	}
}

// TestRunConfigValidateChaosProbabilities: every fault probability must
// lie in [0,1] — NaN included — and the error names the channel and the
// field, so a bad spec fails up front instead of mid-run, on a link the
// session layer cannot heal.
func TestRunConfigValidateChaosProbabilities(t *testing.T) {
	fields := []struct {
		name string
		set  func(*cosim.FaultProfile, float64)
	}{
		{"Drop", func(p *cosim.FaultProfile, v float64) { p.Drop = v }},
		{"Duplicate", func(p *cosim.FaultProfile, v float64) { p.Duplicate = v }},
		{"Reorder", func(p *cosim.FaultProfile, v float64) { p.Reorder = v }},
		{"Corrupt", func(p *cosim.FaultProfile, v float64) { p.Corrupt = v }},
		{"Truncate", func(p *cosim.FaultProfile, v float64) { p.Truncate = v }},
		{"Delay", func(p *cosim.FaultProfile, v float64) { p.Delay = v }},
	}
	for _, f := range fields {
		for ch := cosim.ChanData; int(ch) < cosim.NumChannels; ch++ {
			for _, v := range []float64{-0.1, 1.5, math.Inf(1), math.NaN(), 0, 1} {
				rc := DefaultRunConfig()
				sc := cosim.Scenario{Seed: 1}
				f.set(&sc.Profile[ch], v)
				sess := cosim.DefaultSessionConfig()
				rc.Chaos, rc.Resilience = &sc, &sess
				err := rc.Validate()
				if v == 0 || v == 1 {
					if err != nil {
						t.Errorf("%s %s=%v rejected: %v", ch, f.name, v, err)
					}
					continue
				}
				if err == nil {
					t.Errorf("%s %s=%v accepted", ch, f.name, v)
					continue
				}
				if msg := err.Error(); !strings.Contains(msg, ch.String()+" channel "+f.name) {
					t.Errorf("%s %s=%v: error %q does not name the channel and field", ch, f.name, v, msg)
				}
			}
		}
	}
}
