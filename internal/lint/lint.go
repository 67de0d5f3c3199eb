// Package lint is the repository's static-analysis framework: a small,
// dependency-free analogue of golang.org/x/tools/go/analysis that loads
// packages with `go list -export`, typechecks them from source against
// build-cache export data, and runs the cosim analyzer suite
// (msgownership, determinism, obshandle) over the ASTs.
//
// The framework is stdlib-only on purpose: the repository must build,
// test, and lint with no network access at all, so the usual
// multichecker dependency is replaced by this package plus the
// cmd/cosim-lint driver. The analyzer surface mirrors go/analysis
// closely enough that porting to the real framework later is mechanical.
//
// # Directives
//
// Analyzers honour machine-readable comment directives, each carrying a
// justification after " -- ":
//
//	//cosim:wallclock -- <why>  determinism: this line (or function) is
//	                            genuinely host-side code — heartbeat
//	                            timers, RTO clocks, metrics — and may
//	                            read the wall clock.
//	//cosim:ignore <analyzer> -- <why>  suppress one analyzer's
//	                            diagnostics on this line.
//
// A directive trailing a statement applies to that line; a directive
// alone on a line applies to the next line; a directive in a function's
// doc comment applies to the whole function. Both require a
// justification; a bare one is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//cosim:ignore <name>` directives.
	Name string
	// Doc is a one-paragraph description (shown by cosim-lint -help).
	Doc string
	// Run performs the analysis on one package.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one typechecked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Src maps filenames to their raw bytes (for directive placement).
	Src map[string][]byte

	dirs   *directiveIndex
	report func(Diagnostic)
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos unless an `//cosim:ignore` directive
// for this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.ignored(pos) {
		return
	}
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) ignored(pos token.Pos) bool {
	for _, d := range p.DirectivesAt(pos) {
		if d.Kind == DirIgnore && d.Analyzer == p.Analyzer.Name {
			return true
		}
	}
	if fd := p.enclosingFuncDirectives(pos); fd != nil {
		for _, d := range fd {
			if d.Kind == DirIgnore && d.Analyzer == p.Analyzer.Name {
				return true
			}
		}
	}
	return false
}

// DirectiveKind enumerates the recognized //cosim: directives.
type DirectiveKind string

const (
	DirWallclock DirectiveKind = "wallclock"
	DirIgnore    DirectiveKind = "ignore"
)

// Directive is one parsed //cosim: comment.
type Directive struct {
	Kind     DirectiveKind
	Analyzer string // for DirIgnore: the analyzer it silences
	Reason   string // text after " -- "
	Pos      token.Pos
	Line     int
	// standalone is true when the comment is alone on its line, in which
	// case it governs the following line instead of its own.
	standalone bool
}

// directiveIndex holds the parsed directives of one package.
type directiveIndex struct {
	// byFileLine maps filename -> governed line -> directives.
	byFileLine map[string]map[int][]Directive
	// funcs maps each annotated function's body range to its directives.
	funcs []funcDirectives
	// malformed directives (unknown kind, missing justification).
	bad []Diagnostic
}

type funcDirectives struct {
	start, end token.Pos
	dirs       []Directive
}

// DirectivesAt returns the directives governing pos's line.
func (p *Pass) DirectivesAt(pos token.Pos) []Directive {
	position := p.Fset.Position(pos)
	lines := p.dirs.byFileLine[position.Filename]
	if lines == nil {
		return nil
	}
	return lines[position.Line]
}

// enclosingFuncDirectives returns the directives from the doc comment of
// the function whose body contains pos, if any.
func (p *Pass) enclosingFuncDirectives(pos token.Pos) []Directive {
	for i := range p.dirs.funcs {
		f := &p.dirs.funcs[i]
		if f.start <= pos && pos <= f.end {
			return f.dirs
		}
	}
	return nil
}

// HasDirective reports whether pos's line, or its enclosing function's
// doc comment, carries a directive of the given kind.
func (p *Pass) HasDirective(pos token.Pos, kind DirectiveKind) bool {
	for _, d := range p.DirectivesAt(pos) {
		if d.Kind == kind {
			return true
		}
	}
	for _, d := range p.enclosingFuncDirectives(pos) {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

// parseDirective parses one comment's text; ok is false for comments that
// are not //cosim: directives at all.
func parseDirective(text string) (kind DirectiveKind, analyzer, reason string, ok bool) {
	const prefix = "//cosim:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", "", false
	}
	body := strings.TrimPrefix(text, prefix)
	if i := strings.Index(body, " -- "); i >= 0 {
		reason = strings.TrimSpace(body[i+4:])
		body = strings.TrimSpace(body[:i])
	} else {
		body = strings.TrimSpace(body)
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return "", "", reason, true
	}
	kind = DirectiveKind(fields[0])
	if kind == DirIgnore && len(fields) > 1 {
		analyzer = fields[1]
	}
	return kind, analyzer, reason, true
}

// buildDirectiveIndex scans every comment of the package's files.
func buildDirectiveIndex(fset *token.FileSet, files []*ast.File, src map[string][]byte) *directiveIndex {
	idx := &directiveIndex{byFileLine: make(map[string]map[int][]Directive)}
	for _, f := range files {
		filename := fset.Position(f.Pos()).Filename
		content := src[filename]
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				kind, analyzer, reason, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				d := Directive{
					Kind: kind, Analyzer: analyzer, Reason: reason,
					Pos: c.Pos(), Line: pos.Line,
					standalone: commentIsAlone(content, pos),
				}
				switch kind {
				case DirWallclock, DirIgnore:
					if reason == "" {
						idx.bad = append(idx.bad, Diagnostic{
							Analyzer: "directive", File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: fmt.Sprintf("//cosim:%s requires a justification: //cosim:%s -- <why>", kind, kind),
						})
					}
					if kind == DirIgnore && analyzer == "" {
						idx.bad = append(idx.bad, Diagnostic{
							Analyzer: "directive", File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: "//cosim:ignore requires an analyzer name: //cosim:ignore <analyzer> -- <why>",
						})
					}
				default:
					idx.bad = append(idx.bad, Diagnostic{
						Analyzer: "directive", File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Message: fmt.Sprintf("unknown directive //cosim:%s (known: wallclock, ignore)", kind),
					})
					continue
				}
				governed := d.Line
				if d.standalone {
					governed = d.Line + 1
				}
				lines := idx.byFileLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]Directive)
					idx.byFileLine[pos.Filename] = lines
				}
				lines[governed] = append(lines[governed], d)
			}
		}
		// Function-doc directives govern the whole function body.
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil || fn.Body == nil {
				continue
			}
			var dirs []Directive
			for _, c := range fn.Doc.List {
				kind, analyzer, reason, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				switch kind {
				case DirWallclock, DirIgnore:
					dirs = append(dirs, Directive{Kind: kind, Analyzer: analyzer, Reason: reason, Pos: c.Pos()})
				}
			}
			if len(dirs) > 0 {
				idx.funcs = append(idx.funcs, funcDirectives{start: fn.Body.Pos(), end: fn.Body.End(), dirs: dirs})
			}
		}
	}
	return idx
}

// commentIsAlone reports whether the comment at pos is the first
// non-whitespace content of its source line.
func commentIsAlone(src []byte, pos token.Position) bool {
	if src == nil {
		return false
	}
	// pos.Offset is the comment start; walk back to the line start.
	for i := pos.Offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
			continue
		default:
			return false
		}
	}
	return true
}

// RunAnalyzers executes the analyzers over every target package of l and
// returns the findings sorted by position. Malformed directives are
// reported once per package under the pseudo-analyzer "directive".
func RunAnalyzers(l *Loaded, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range l.Pkgs {
		idx := buildDirectiveIndex(l.Fset, pkg.Files, pkg.Src)
		out = append(out, idx.bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     l.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Src:      pkg.Src,
				dirs:     idx,
				report:   func(d Diagnostic) { out = append(out, d) },
			}
			if err := a.Run(pass); err != nil {
				return out, fmt.Errorf("%s: %s: %w", pkg.List.ImportPath, a.Name, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// typeIsMsg reports whether t is (a pointer to) the cosim message struct:
// a named type `Msg` declared in a package named "cosim". Matching by
// package *name* rather than import path keeps the analyzers testable
// against golden packages that declare their own miniature cosim.
func typeIsMsg(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Msg" && obj.Pkg() != nil && obj.Pkg().Name() == "cosim"
}

// lookupTransportInterface finds the cosim Transport interface visible
// from pkg: in pkg itself when pkg is named "cosim", else in a directly
// imported package named "cosim". It returns the *named* type so that
// synthesized method signatures (Unwrap() Transport) compare identical
// to real declarations.
func lookupTransportInterface(pkg *types.Package) *types.Named {
	probe := func(p *types.Package) *types.Named {
		if p.Name() != "cosim" {
			return nil
		}
		obj, ok := p.Scope().Lookup("Transport").(*types.TypeName)
		if !ok {
			return nil
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			return nil
		}
		if _, isIface := named.Underlying().(*types.Interface); !isIface {
			return nil
		}
		return named
	}
	if i := probe(pkg); i != nil {
		return i
	}
	for _, imp := range pkg.Imports() {
		if i := probe(imp); i != nil {
			return i
		}
	}
	return nil
}
