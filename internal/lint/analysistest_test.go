package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches the golden corpus's expectation comments:
//
//	expr // want "substring or regexp" "another"
//
// Each quoted pattern must match one diagnostic reported on that line.
var wantRe = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)$`)

type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// loadExpectations scans every .go file under dir for want comments.
func loadExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	var wants []*expectation
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, q := range regexp.MustCompile(`"(?:[^"\\]|\\.)*"`).FindAllString(m[1], -1) {
				pat := q[1 : len(q)-1]
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), i+1, pat, err)
				}
				wants = append(wants, &expectation{file: e.Name(), line: i + 1, re: re, raw: pat})
			}
		}
	}
	return wants
}

// runGolden analyzes one testdata package and diffs the diagnostics
// against its want comments, in both directions.
func runGolden(t *testing.T, pkg string, analyzers []*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	loaded, err := Load(".", []string{"./" + filepath.ToSlash(dir)})
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := RunAnalyzers(loaded, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants := loadExpectations(t, dir)

	var unexpected []string
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == filepath.Base(d.File) && w.line == d.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			unexpected = append(unexpected, d.String())
		}
	}
	for _, u := range unexpected {
		t.Errorf("unexpected diagnostic: %s", u)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

func TestMsgOwnershipGolden(t *testing.T) {
	runGolden(t, "ownership", []*Analyzer{MsgOwnership})
}

func TestDeterminismGolden(t *testing.T) {
	det := NewDeterminism(DeterminismConfig{
		Strict: []string{"detstrict"},
		Hybrid: []string{"dethybrid"},
	})
	runGolden(t, "detstrict", []*Analyzer{det})
	runGolden(t, "dethybrid", []*Analyzer{det})
}

func TestObsHandleGolden(t *testing.T) {
	runGolden(t, "obshot", []*Analyzer{ObsHandle})
}

// TestCleanPackageIsSilent is the suite's negative control: a correct
// package must produce zero findings under every analyzer at once.
func TestCleanPackageIsSilent(t *testing.T) {
	det := NewDeterminism(DeterminismConfig{Strict: []string{"clean"}})
	loaded, err := Load(".", []string{"./testdata/src/clean"})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(loaded, []*Analyzer{MsgOwnership, det, ObsHandle})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("clean package produced: %s", d)
	}
}

// TestMalformedDirectivesReported: a wallclock directive without a
// reason, an ignore without an analyzer, and a directive of an unknown
// kind are findings themselves.
func TestMalformedDirectivesReported(t *testing.T) {
	loaded, err := Load(".", []string{"./testdata/src/baddirective"})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(loaded, []*Analyzer{MsgOwnership})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 3 {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("want 3 malformed-directive findings, got %d", len(diags))
	}
	unknown := false
	for _, d := range diags {
		if d.Analyzer != "directive" {
			t.Errorf("finding attributed to %q, want \"directive\": %s", d.Analyzer, d)
		}
		unknown = unknown || d.Message == "unknown directive //cosim:owns (known: wallclock, ignore)"
	}
	if !unknown {
		t.Error("no finding names the unknown //cosim:owns directive and the known kinds")
	}
}

// TestDiagnosticString pins the file:line:col rendering make lint's
// output depends on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "determinism", File: "x.go", Line: 3, Col: 7, Message: "boom"}
	if got, want := d.String(), "x.go:3:7: boom [determinism]"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
