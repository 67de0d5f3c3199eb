package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// goldenJSON holds, per workload, the reference fingerprint digest of
// every input at seed 1 and full scale. Regenerate it with -write-golden
// only when a change is meant to alter simulated behaviour.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// checkGolden compares the reference runs with the committed digests and
// returns the number of mismatches.
func (e *env) checkGolden() int {
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintf(os.Stderr, "bench: testdata/golden.json: %v\n", err)
		return 1
	}
	want := golden[e.w.name]
	bad := 0
	if len(want) != len(e.refs) {
		fmt.Fprintf(os.Stderr, "bench: %s: golden.json lists %d inputs, the workload has %d\n", e.w.name, len(want), len(e.refs))
		bad++
	}
	for key, ref := range e.refs {
		if got := ref.digest(); want[key] != got {
			fmt.Fprintf(os.Stderr, "bench: %s: input %s: fingerprint %s, golden.json has %q\n", e.w.name, key, got, want[key])
			bad++
		}
	}
	return bad
}

// writeGolden runs every workload's references at seed 1 and writes
// their digests to path.
func writeGolden(ctx context.Context, path string) error {
	golden := make(map[string]map[string]string)
	for _, w := range workloads {
		e := &env{w: w, ins: w.inputs(drawTBSeeds(1), 1)}
		if err := e.references(ctx); err != nil {
			return err
		}
		digests := make(map[string]string)
		for key, ref := range e.refs {
			digests[key] = ref.digest()
		}
		golden[w.name] = digests
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
