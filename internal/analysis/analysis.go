// Package analysis is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough framework to host the
// project's own static checks (lockheld, donecall, wallclock,
// relayclass, poolpair, noalloc) without pulling x/tools into the
// module. The shapes — Analyzer, Pass, Diagnostic — deliberately mirror
// the upstream API so anyone who has written a go/analysis pass can
// read these.
//
// The framework loads packages through the go command itself
// (`go list -export`), type-checks target packages from source with the
// standard library's gc importer, and runs each analyzer over one
// package at a time. Facts (cross-package analysis results) are not
// supported; every analyzer here is package-local by design.
//
// Suppression: a comment of the form
//
//	//lard:allow <analyzer>[,<analyzer>...] [— reason]
//
// on the flagged line or the line directly above it suppresses that
// analyzer's diagnostics for the line. Deliberate exceptions should
// carry a reason; the directive is grep-able either way.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lard:allow
	// directives. Lower-case, no spaces.
	Name string

	// Doc is the analyzer's one-paragraph description; the first line is
	// used as a summary.
	Doc string

	// Run executes the check over one package and reports findings
	// through pass.Report / pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Dir is the package's directory, for analyzers that shell out to
	// the go tool over it (noalloc drives the compiler's escape
	// analysis).
	Dir string

	// report receives every non-suppressed diagnostic, once: a path
	// analysis reaches the same finding along several paths, and seen
	// drops the repeats.
	report func(Diagnostic)
	seen   map[Diagnostic]bool

	// allow maps "file:line" to the set of analyzer names allowed there,
	// built once per package from //lard:allow directives.
	allow map[string]map[string]bool
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf reports a finding at pos unless a //lard:allow directive
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowedAt(position) {
		return
	}
	d := Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)}
	if !p.seen[d] {
		p.seen[d] = true
		p.report(d)
	}
}

// allowedAt consults //lard:allow directives: one on the flagged line
// itself, or on the line directly above it, suppresses the diagnostic.
func (p *Pass) allowedAt(pos token.Position) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if names := p.allow[fmt.Sprintf("%s:%d", pos.Filename, line)]; names != nil {
			if names[p.Analyzer.Name] || names["all"] {
				return true
			}
		}
	}
	return false
}

// buildAllow scans the package's comments for //lard:allow directives.
func buildAllow(fset *token.FileSet, files []*ast.File) map[string]map[string]bool {
	allow := make(map[string]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lard:allow") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "lard:allow"))
				// Everything after the first whitespace-delimited field is
				// the human reason.
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				set := allow[key]
				if set == nil {
					set = make(map[string]bool)
					allow[key] = set
				}
				for _, name := range strings.Split(fields[0], ",") {
					if name = strings.TrimSpace(name); name != "" {
						set[name] = true
					}
				}
			}
		}
	}
	return allow
}

// RunAnalyzers applies each analyzer to the package and returns the
// diagnostics sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	allow := buildAllow(pkg.Fset, pkg.Syntax)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Dir:       pkg.Dir,
			allow:     allow,
			report:    func(d Diagnostic) { diags = append(diags, d) },
			seen:      make(map[Diagnostic]bool),
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: analyzing %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
