// Command cosim-lint runs the repo's custom static analyzers over Go
// packages and reports contract violations:
//
//	msgownership  no Msg payload written after the message was sent
//	determinism   no wall-clock/unseeded-rand/goroutines/map-order in simulated time
//	obshandle     hoisted obs metric handles, Unwrap on wrapping transports
//
// Usage:
//
//	cosim-lint [-json] [-out FILE] [-analyzers a,b] [packages]
//
// Patterns default to ./... relative to the current directory. Exit
// status is 1 when findings are reported, 2 on operational errors.
// See docs/STATIC_ANALYSIS.md for the analyzer catalog and the
// //cosim: directive reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("cosim-lint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	outFile := fs.String("out", "", "also write the JSON findings to this file (written even when clean)")
	only := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := fs.Bool("list", false, "list the available analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cosim-lint [-json] [-out FILE] [-analyzers a,b] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Analyzers:\n")
		for _, a := range allAnalyzers() {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(fs.Output(), "\nFlags:\n")
		fs.PrintDefaults()
	}
	fs.Parse(argv)

	if *list {
		for _, a := range allAnalyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosim-lint:", err)
		return 2
	}

	patterns := fs.Args()
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosim-lint:", err)
		return 2
	}

	loaded, err := lint.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosim-lint:", err)
		return 2
	}
	diags, err := lint.RunAnalyzers(loaded, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosim-lint:", err)
		return 2
	}

	// Repo-relative paths read better and keep CI artifacts portable.
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}

	if *outFile != "" {
		if err := writeJSON(*outFile, diags); err != nil {
			fmt.Fprintln(os.Stderr, "cosim-lint:", err)
			return 2
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diagsOrEmpty(diags)); err != nil {
			fmt.Fprintln(os.Stderr, "cosim-lint:", err)
			return 2
		}
	} else {
		printSummary(os.Stdout, diags)
	}

	if len(diags) > 0 {
		return 1
	}
	return 0
}

func allAnalyzers() []*lint.Analyzer {
	return []*lint.Analyzer{lint.MsgOwnership, lint.Determinism, lint.ObsHandle}
}

func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	all := allAnalyzers()
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var sel []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (run -list for the catalog)", name)
		}
		sel = append(sel, a)
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("-analyzers selected nothing")
	}
	return sel, nil
}

func diagsOrEmpty(d []lint.Diagnostic) []lint.Diagnostic {
	if d == nil {
		return []lint.Diagnostic{}
	}
	return d
}

func writeJSON(path string, diags []lint.Diagnostic) error {
	data, err := json.MarshalIndent(diagsOrEmpty(diags), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printSummary renders a per-file grouping with a trailing total, the
// human-readable counterpart of the JSON artifact.
func printSummary(w *os.File, diags []lint.Diagnostic) {
	if len(diags) == 0 {
		fmt.Fprintln(w, "cosim-lint: no findings")
		return
	}
	byFile := make(map[string][]lint.Diagnostic)
	var files []string
	for _, d := range diags {
		if _, ok := byFile[d.File]; !ok {
			files = append(files, d.File)
		}
		byFile[d.File] = append(byFile[d.File], d)
	}
	sort.Strings(files)
	for _, f := range files {
		fmt.Fprintf(w, "%s (%d):\n", f, len(byFile[f]))
		for _, d := range byFile[f] {
			fmt.Fprintf(w, "  %s\n", d.String())
		}
	}
	fmt.Fprintf(w, "cosim-lint: %d finding(s)\n", len(diags))
}
