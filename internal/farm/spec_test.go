package farm

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/router"
)

// TestSpecLowersToDefaults: the zero spec is the default run.
func TestSpecLowersToDefaults(t *testing.T) {
	rc, err := SessionSpec{}.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	want := router.DefaultRunConfig()
	if rc.TSync != want.TSync || rc.Transport != want.Transport || rc.Mode != want.Mode ||
		rc.TB != want.TB || rc.BoardCfg != want.BoardCfg || rc.AppCfg != want.AppCfg {
		t.Errorf("zero spec did not lower to DefaultRunConfig:\ngot  %+v\nwant %+v", rc, want)
	}
}

// TestSpecLowering checks every field group crosses the lowering, with
// zero fields keeping defaults.
func TestSpecLowering(t *testing.T) {
	spec := SessionSpec{
		Tenant:      "acme",
		Transport:   "tcp",
		TSync:       500,
		Mode:        "pipelined",
		Batch:       true,
		MaxCycles:   123456,
		LinkDelayUS: 200,
		Chaos:       &ChaosSpec{Seed: 7, Drop: 0.01, Corrupt: 0.02, MaxDelayUS: 1500},
		Resilience:  &ResilienceSpec{RetransmitTimeoutMS: 10, HeartbeatMiss: 5},
		TB:          &TBSpec{PacketsPerPort: 3, Period: 700, Seed: 9, ErrRate: 0.25},
		Board:       &BoardSpec{CyclesPerGrantTick: 50},
		App:         &AppSpec{Timing: "annotated", MailboxCap: 8},
		Federation:  &router.FederationConfig{Boards: 2, PulseDevices: 1, PulsePeriod: 900},
	}
	rc, err := spec.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Transport != router.TransportTCP || rc.TSync != 500 || rc.Batch != true {
		t.Errorf("headline fields lost: %+v", rc)
	}
	if rc.LinkDelay != 200*time.Microsecond {
		t.Errorf("LinkDelay = %v, want 200µs", rc.LinkDelay)
	}
	if rc.Chaos == nil || rc.Chaos.Seed != 7 || rc.Chaos.Profile[0].Drop != 0.01 ||
		rc.Chaos.Profile[2].Corrupt != 0.02 || rc.Chaos.Profile[1].MaxDelay != 1500*time.Microsecond {
		t.Errorf("chaos lost: %+v", rc.Chaos)
	}
	if rc.Resilience == nil || rc.Resilience.RetransmitTimeout != 10*time.Millisecond ||
		rc.Resilience.HeartbeatMiss != 5 {
		t.Errorf("resilience lost: %+v", rc.Resilience)
	}
	// Zero resilience fields keep the defaults.
	if rc, err := (SessionSpec{Resilience: &ResilienceSpec{}}).RunConfig(); err != nil ||
		rc.Resilience == nil || rc.Resilience.RetransmitTimeout != 100*time.Millisecond {
		t.Errorf("resilience defaults not kept: %+v (%v)", rc.Resilience, err)
	}
	if rc.TB.PacketsPerPort != 3 || rc.TB.Period != 700 || rc.TB.Seed != 9 || rc.TB.ErrRate != 0.25 {
		t.Errorf("tb lost: %+v", rc.TB)
	}
	if rc.TB.Ports != 4 || rc.TB.FIFOCap != 4 {
		t.Errorf("tb defaults not kept: %+v", rc.TB)
	}
	if rc.BoardCfg.CyclesPerGrantTick != 50 || rc.BoardCfg.MMIOReadCost != 4 {
		t.Errorf("board knobs wrong: %+v", rc.BoardCfg)
	}
	if rc.AppCfg.Timing != router.TimingAnnotated || rc.AppCfg.MailboxCap != 8 || rc.AppCfg.Priority != 10 {
		t.Errorf("app knobs wrong: %+v", rc.AppCfg)
	}
	// The topology is copied, so the config does not alias the spec.
	if rc.Federation == nil || rc.Federation == spec.Federation || *rc.Federation != *spec.Federation {
		t.Errorf("federation lost: %+v", rc.Federation)
	}
}

// TestSpecValidation: bad enum values and incoherent combinations fail
// at lowering with actionable errors.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec SessionSpec
		want string
	}{
		{"unknown transport", SessionSpec{Transport: "pigeon"}, "unknown transport"},
		{"unknown mode", SessionSpec{Mode: "psychic"}, "unknown mode"},
		{"unknown timing", SessionSpec{App: &AppSpec{Timing: "vibes"}}, "unknown app timing"},
		{"negative delay", SessionSpec{LinkDelayUS: -1}, "negative"},
		{"chaos without resilience", SessionSpec{Chaos: &ChaosSpec{Seed: 1, Drop: 0.1}}, "Chaos without Resilience"},
		{"adaptive pipelined", SessionSpec{Adaptive: true, Mode: "pipelined"}, "Adaptive with SyncPipelined"},
		{"max quantum without adaptive", SessionSpec{MaxQuantum: 4096}, "MaxQuantum 4096 without Adaptive"},
		{"max quantum below tsync", SessionSpec{TSync: 500, Adaptive: true, MaxQuantum: 499}, "MaxQuantum 499 is below TSync 500"},
		{"chaos probability above 1", SessionSpec{Chaos: &ChaosSpec{Seed: 1, Drop: 1.5}, Resilience: &ResilienceSpec{}}, "DATA channel Drop probability 1.5"},
		{"chaos probability negative", SessionSpec{Chaos: &ChaosSpec{Seed: 1, Delay: -0.5}, Resilience: &ResilienceSpec{}}, "DATA channel Delay probability -0.5"},
		{"federation without boards", SessionSpec{Federation: &router.FederationConfig{Boards: 0}}, "at least one board"},
		{"federation past the engine IRQs", SessionSpec{Federation: &router.FederationConfig{Boards: 28}}, router.ErrIRQRange.Error()},
		{"federation past the pulse IRQs", SessionSpec{Federation: &router.FederationConfig{Boards: 1, PulseDevices: 17}}, router.ErrIRQRange.Error()},
		{"negative retransmit timeout", SessionSpec{Resilience: &ResilienceSpec{RetransmitTimeoutMS: -5}}, "RetransmitTimeout -5ms is negative"},
		{"negative heartbeat interval", SessionSpec{Resilience: &ResilienceSpec{HeartbeatIntervalMS: -1}}, "HeartbeatInterval -1ms is negative"},
		{"negative heartbeat miss", SessionSpec{Resilience: &ResilienceSpec{HeartbeatMiss: -1}}, "HeartbeatMiss -1 is negative"},
	}
	for _, tc := range cases {
		if _, err := tc.spec.RunConfig(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestSpecRejectsPipelinedInProcBoards: a pipelined spec with in-process
// boards parses, and its lowering fails naming the pair, which would
// otherwise run alternating while reporting pipelined.
func TestSpecRejectsPipelinedInProcBoards(t *testing.T) {
	s, err := ParseSpec([]byte(`{"mode":"pipelined","federation":{"boards":2,"inproc_boards":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunConfig(); err == nil || !strings.Contains(err.Error(), "SyncPipelined with InProcBoards") {
		t.Fatalf("lowering: %v, want the pipelined in-process pair rejected", err)
	}
}

// TestSpecJSONRoundTrip: a spec survives the wire byte-exactly, and its
// lowering on the far side matches the near side's — the property the
// fleet control plane rests on.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := SessionSpec{
		Tenant:     "acme",
		Transport:  "uds",
		TSync:      321,
		Adaptive:   true,
		MaxQuantum: 4096,
		Chaos:      &ChaosSpec{Seed: 11, Drop: 0.01},
		Resilience: &ResilienceSpec{RetransmitTimeoutMS: 15},
		TB:         &TBSpec{PacketsPerPort: 5, Seed: 3},
		Federation: &router.FederationConfig{Boards: 2, InProcBoards: true, PulseDevices: 1},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	rcA, err := spec.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	rcB, err := back.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	// Pointer fields compare by value (Resilience holds a func field, so
	// compare its scalars).
	if *rcA.Chaos != *rcB.Chaos {
		t.Errorf("chaos diverged across the wire")
	}
	if rcA.Resilience.RetransmitTimeout != rcB.Resilience.RetransmitTimeout ||
		rcA.Resilience.HeartbeatMiss != rcB.Resilience.HeartbeatMiss {
		t.Errorf("resilience diverged across the wire")
	}
	if *rcA.Federation != *rcB.Federation {
		t.Errorf("federation diverged across the wire")
	}
	rcA.Chaos, rcB.Chaos = nil, nil
	rcA.Resilience, rcB.Resilience = nil, nil
	rcA.Federation, rcB.Federation = nil, nil
	if rcA != rcB {
		t.Errorf("lowering diverged across the wire:\nnear %+v\nfar  %+v", rcA, rcB)
	}
}

// TestParseSpecRejectsUnknownFields: a typo in a hand-written spec file
// is a submission error, not a silent default run.
func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"tysnc": 100}`)); err == nil {
		t.Fatal("misspelled field accepted")
	}
	// A knob the session layer no longer has fails loudly, not silently.
	if _, err := ParseSpec([]byte(`{"resilience":{"max_redials":3}}`)); err == nil || !strings.Contains(err.Error(), "max_redials") {
		t.Fatalf("removed resilience knob: got %v, want an unknown-field error naming max_redials", err)
	}
}

// specCorpus holds hand-written spec documents, valid and invalid; the
// parsing tests check them and FuzzParseSpec starts from them.
var specCorpus = []struct {
	name, doc string
	ok        bool
	err       error // the named error, when there is one
}{
	{"empty object", `{}`, true, nil},
	{"trailing whitespace", "{\"tsync\": 100}\n\t\r ", true, nil},
	{"full", `{"tenant":"acme","transport":"tcp","tsync":500,"mode":"pipelined","batch":true,` +
		`"max_cycles":123456,"link_delay_us":200,"chaos":{"seed":7,"drop":0.01,"corrupt":0.02,"max_delay_us":1500},` +
		`"resilience":{"retransmit_timeout_ms":10,"heartbeat_miss":5},"tb":{"packets_per_port":3,"period":700,"seed":9,"err_rate":0.25},` +
		`"board":{"cycles_per_grant_tick":50},"app":{"timing":"annotated","mailbox_cap":8}}`, true, nil},
	{"adaptive", `{"transport":"uds","tsync":321,"adaptive":true,"max_quantum":4096}`, true, nil},
	{"out-of-range chaos parses", `{"chaos":{"seed":1,"drop":1.5},"resilience":{}}`, true, nil},
	{"max quantum without adaptive parses", `{"max_quantum":4096}`, true, nil},
	{"max quantum below tsync parses", `{"tsync":500,"adaptive":true,"max_quantum":499}`, true, nil},
	{"unknown field", `{"tysnc": 100}`, false, nil},
	{"truncated", `{"tsync":`, false, nil},
	{"not an object", `[1,2]`, false, nil},
	{"second object", `{"tsync":100}{"tsync":1}`, false, ErrTrailingData},
	{"trailing junk", `{"tsync":100} junk`, false, ErrTrailingData},
	{"trailing array", `{"tsync":100}[]`, false, ErrTrailingData},
	{"trailing number", "{}\n1", false, ErrTrailingData},
	{"federation", `{"tsync":200,"federation":{"boards":2,"inproc_boards":true,"pulse_devices":1,"pulse_period":500}}`, true, nil},
	{"federation without boards parses", `{"federation":{"boards":0}}`, true, nil},
	{"federation past the engine IRQs parses", `{"federation":{"boards":28}}`, true, nil},
	{"federation past the pulse IRQs parses", `{"federation":{"boards":1,"pulse_devices":17}}`, true, nil},
	{"negative retransmit timeout parses; lowering rejects", `{"resilience":{"retransmit_timeout_ms":-5}}`, true, nil},
	{"negative heartbeat miss parses; lowering rejects", `{"resilience":{"heartbeat_interval_ms":5,"heartbeat_miss":-1}}`, true, nil},
	{"unknown federation field", `{"federation":{"boards":1,"link_stack":[]}}`, false, nil},
	{"app engine is not a spec field", `{"app":{"engine":3}}`, false, nil},
}

// TestParseSpecCorpus: a spec document is one JSON object and nothing
// but whitespace after it; concatenated specs and trailing bytes fail
// with ErrTrailingData instead of parsing as the first spec.
func TestParseSpecCorpus(t *testing.T) {
	for _, tc := range specCorpus {
		_, err := ParseSpec([]byte(tc.doc))
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.err != nil && !errors.Is(err, tc.err):
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.err)
		}
	}
}
