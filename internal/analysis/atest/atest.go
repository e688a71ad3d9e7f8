// Package atest runs an analyzer over fixture packages under a
// testdata/src tree and checks its diagnostics against // want
// comments, mirroring golang.org/x/tools/go/analysis/analysistest
// closely enough that the fixtures read the same way:
//
//	x := sh.inFlight // want `accessed without holding`
//
// A want comment holds one or more quoted regular expressions (double
// quotes or backquotes); each must be matched, in order of appearance,
// by a diagnostic the analyzer reports on that line. Diagnostics with
// no matching want, and wants with no matching diagnostic, fail the
// test.
//
// Fixture packages may import real module packages (the import is
// resolved through the repository's own build, via `go list -export`),
// and their import path is their directory path relative to
// testdata/src — so a fixture that must look like a virtual-clock
// package lives at testdata/src/lard/internal/sim.
package atest

import (
	"fmt"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"lard/internal/analysis"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run loads each fixture package (a path relative to testdata/src),
// applies the analyzer, and checks diagnostics against // want
// comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, fixturePkgs ...string) {
	t.Helper()
	exports, err := moduleExports()
	if err != nil {
		t.Fatalf("loading module export data: %v", err)
	}
	for _, rel := range fixturePkgs {
		rel := rel
		t.Run(strings.ReplaceAll(rel, "/", "_"), func(t *testing.T) {
			t.Helper()
			pkg, err := loadFixture(filepath.Join(testdata, "src", rel), rel, exports)
			if err != nil {
				t.Fatal(err)
			}
			diags, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a})
			if err != nil {
				t.Fatal(err)
			}
			check(t, pkg, diags)
		})
	}
}

// moduleExports builds the import-path → export-data map for the whole
// module and its dependencies (stdlib included), so fixtures can import
// real packages.
func moduleExports() (map[string]string, error) {
	gomod, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return nil, fmt.Errorf("go env GOMOD: %v", err)
	}
	moduleDir := filepath.Dir(strings.TrimSpace(string(gomod)))
	cmd := exec.Command("go", "list", "-e", "-export", "-deps",
		"-f", "{{if .Export}}{{.ImportPath}}\t{{.Export}}{{end}}",
		"./...", "std")
	cmd.Dir = moduleDir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			exports[path] = file
		}
	}
	return exports, nil
}

func loadFixture(dir, importPath string, exports map[string]string) (*analysis.Package, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no Go files in %s", importPath, dir)
	}
	fset := token.NewFileSet()
	return analysis.TypeCheck(fset, analysis.ExportImporter(fset, exports), importPath, dir, files)
}

// wantRx extracts the quoted regexps from a // want comment.
var wantRx = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

func check(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "want ")
				if !strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), "want ") {
					continue
				}
				spec := text[i+len("want "):]
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRx.FindAllStringSubmatch(spec, -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: rx})
				}
			}
		}
	}
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.pattern)
		}
	}
}
