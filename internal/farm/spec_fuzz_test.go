package farm

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseSpec: ParseSpec is the farm's untrusted-input parser. Every
// input either fails to parse or yields a spec that re-marshals and
// re-parses to an equal value, and lowering it never panics.
func FuzzParseSpec(f *testing.F) {
	for _, tc := range specCorpus {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("parsed spec does not marshal: %v", err)
		}
		back, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("re-marshalled spec %s does not parse: %v", out, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", back, spec)
		}
		_, _ = spec.RunConfig()
	})
}
