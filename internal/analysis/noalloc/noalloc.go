// Package noalloc verifies that functions annotated
//
//	//lard:noalloc
//
// in their doc comment contain no heap allocations, by driving the
// compiler's own escape analysis (`go build -gcflags='-m -m'`) over
// the package and mapping "escapes to heap" / "moved to heap"
// diagnostics back into the annotated function bodies. The annotation
// belongs on the relay hot paths PR 7 made allocation-free — the copy
// loops in internal/httprelay, the frame read/write path in
// internal/handoff, Session.Dispatch in pkg/lard — and turns the
// measured B/op reductions into an invariant the build enforces: a
// change that quietly boxes a value or grows a closure on one of these
// paths becomes a lint finding, not a benchmark regression someone may
// notice months later.
//
// Two properties of the escape output matter here:
//
//   - Allocations inlined from callees are attributed to positions in
//     the *annotated* function (the call site), so the check covers the
//     whole inlined fast path, not just syntax written in the function.
//   - The go build cache replays -m diagnostics on cache hits, so the
//     check is cheap and reliable on warm builds.
//
// Escape hatch: //lard:allow noalloc — reason, on (or directly above)
// the line the compiler flags. Use it only for diagnostics that are
// provably not runtime allocations on the hot path (e.g. an inlined
// callee's cold arm that cannot execute with pooled inputs).
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"lard/internal/analysis"
)

// Analyzer is the noalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "check that //lard:noalloc functions compile without heap allocations (escape analysis clean)",
	Run:  run,
}

// region is one annotated function's body extent within a file.
type region struct {
	name       string
	start, end int // line range, inclusive
}

// diagLine matches one compiler diagnostic: file:line:col: message.
var diagLine = regexp.MustCompile(`^(.*\.go):(\d+):(\d+): (.*)$`)

func run(pass *analysis.Pass) error {
	// Collect annotated functions per file basename.
	regions := make(map[string][]region)
	files := make(map[string]*token.File)
	count := 0
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf == nil {
			continue
		}
		base := filepath.Base(tf.Name())
		files[base] = tf
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasNoallocDirective(fd) {
				continue
			}
			regions[base] = append(regions[base], region{
				name:  fd.Name.Name,
				start: pass.Fset.Position(fd.Pos()).Line,
				end:   pass.Fset.Position(fd.Body.End()).Line,
			})
			count++
		}
	}
	if count == 0 {
		return nil
	}

	// The compiler's escape analysis over the package. Diagnostics go
	// to stderr; the build cache replays them on cache hits, so this is
	// cheap when nothing changed. -m -m adds the flow chains, whose
	// detail lines the message filter below drops.
	cmd := exec.Command("go", "build", "-gcflags=-m -m", ".")
	cmd.Dir = pass.Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build -gcflags=-m in %s: %v\n%s", pass.Dir, err, out)
	}

	// -m -m reports the same allocation more than once (the verbose
	// "escapes to heap:" headline plus the plain line, or an escape plus
	// "moved to heap"); one finding per source position is enough.
	seen := make(map[string]bool)
	for _, line := range strings.Split(string(out), "\n") {
		m := diagLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !isAllocation(msg) {
			continue
		}
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		base := filepath.Base(m[1])
		tf := files[base]
		if tf == nil {
			continue
		}
		key := fmt.Sprintf("%s:%d:%d", base, lineNo, col)
		if seen[key] {
			continue
		}
		seen[key] = true
		for _, rg := range regions[base] {
			if lineNo < rg.start || lineNo > rg.end {
				continue
			}
			pos := posAt(tf, lineNo, col)
			if pos == token.NoPos {
				break
			}
			pass.Reportf(pos, "heap allocation in //lard:noalloc function %s: %s",
				rg.name, strings.TrimSuffix(msg, ":"))
			break
		}
	}
	return nil
}

// hasNoallocDirective reports a //lard:noalloc line in the function's
// doc comment.
func hasNoallocDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "lard:noalloc" {
			return true
		}
	}
	return false
}

// isAllocation keeps only the escape-analysis headlines that mean a
// runtime heap allocation: "x escapes to heap" (with or without the
// -m -m trailing colon) and "moved to heap: x". Everything else the
// flag prints — "leaking param", "can inline", the indented "flow:"
// chains — is not an allocation.
func isAllocation(msg string) bool {
	if strings.HasPrefix(msg, " ") {
		return false // -m -m detail lines are indented under the headline
	}
	if strings.HasPrefix(msg, "moved to heap:") {
		return true
	}
	return strings.HasSuffix(msg, "escapes to heap") || strings.HasSuffix(msg, "escapes to heap:")
}

// posAt synthesizes a token.Pos for line:col in tf, so Reportf's
// //lard:allow suppression works on compiler positions.
func posAt(tf *token.File, line, col int) token.Pos {
	if line < 1 || line > tf.LineCount() {
		return token.NoPos
	}
	p := tf.LineStart(line)
	return p + token.Pos(col-1)
}
