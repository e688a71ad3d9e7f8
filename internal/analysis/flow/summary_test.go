package flow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"lard/internal/analysis/flow"
)

// The synthetic package: acquire/release are bodyless stubs, so the
// summarizer treats them as external calls classified purely by the
// Table, and everything else exercises the bottom-up
// computation — chains, conditional releases, borrows, adoption,
// direct and mutual recursion, method values, and returns-acquired
// propagation through wrappers.
const summarySrc = `package p

type res struct{ n int }

func acquire() *res
func acquire2() (*res, bool)
func release(r *res)

func (r *res) size() int { return r.n }

var sink *res

func releasesAlways(r *res) {
	release(r)
}

func releasesSome(r *res, drop bool) {
	if drop {
		release(r)
	}
}

func borrows(r *res) int {
	return r.size()
}

func adoptsStore(r *res) {
	sink = r
}

func adoptsReturn(r *res) *res {
	return r
}

func chained(r *res) {
	releasesAlways(r)
}

func chainedBorrow(r *res) {
	borrows(r)
	release(r)
}

func countdown(r *res, n int) {
	if n == 0 {
		release(r)
		return
	}
	countdown(r, n-1)
}

func pingPong(r *res, n int) {
	if n == 0 {
		release(r)
		return
	}
	pongPing(r, n-1)
}

func pongPing(r *res, n int) {
	pingPong(r, n)
}

func methodValue(r *res) {
	f := release
	f(r)
}

func boundMethod(r *res) int {
	g := r.size
	return g()
}

func capturedParam(r *res) func() {
	return func() { release(r) }
}

func returnsAcquired() *res {
	return acquire()
}

func returnsAcquiredLocal() *res {
	r := acquire()
	return r
}

func returnsSometimes(ok bool) *res {
	if ok {
		return acquire()
	}
	return nil
}

func viaWrapper() *res {
	return returnsAcquired()
}

func forwardsTuple() (*res, bool) {
	return acquire2()
}
`

func loadSummarySrc(t *testing.T) ([]*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", summarySrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return []*ast.File{f}, info
}

// summaryTable classifies the stubs: acquire and acquire2 hand out an
// obligation, release discharges its argument's.
var summaryTable = &flow.Table{
	Acquires: []flow.Acquire{{Name: "acquire"}, {Name: "acquire2"}},
	Releases: []flow.Release{{Name: "release", Arg: 0}},
}

func summaryByName(t *testing.T, sums map[*types.Func]*flow.Summary, name string) *flow.Summary {
	t.Helper()
	for fn, sum := range sums {
		if fn.Name() == name {
			return sum
		}
	}
	t.Fatalf("no summary for %s", name)
	return nil
}

func TestSummarizeParamEffects(t *testing.T) {
	files, info := loadSummarySrc(t)
	sums := flow.Summarize(files, info, summaryTable)
	cases := []struct {
		fn    string
		param int
		want  flow.Effect
	}{
		{"releasesAlways", 0, flow.EffReleasesAlways},
		{"releasesSome", 0, flow.EffReleasesSome},
		{"borrows", 0, flow.EffNone},
		{"adoptsStore", 0, flow.EffAdopts},
		{"adoptsReturn", 0, flow.EffAdopts},
		// Through a summarized callee: the chain releases.
		{"chained", 0, flow.EffReleasesAlways},
		// A borrowing callee first, then the release.
		{"chainedBorrow", 0, flow.EffReleasesAlways},
		// Cycles are cut conservatively: the self/mutual call adopts.
		{"countdown", 0, flow.EffAdopts},
		{"pingPong", 0, flow.EffAdopts},
		{"pongPing", 0, flow.EffAdopts},
		// Calls through function and method values are unknown callees.
		{"methodValue", 0, flow.EffAdopts},
		{"boundMethod", 0, flow.EffAdopts},
		// Captured by a closure: the closure owns it now.
		{"capturedParam", 0, flow.EffAdopts},
		// The basic-typed parameters can carry no obligation.
		{"releasesSome", 1, flow.EffNone},
		{"countdown", 1, flow.EffNone},
	}
	for _, c := range cases {
		sum := summaryByName(t, sums, c.fn)
		if got := sum.Params[c.param]; got != c.want {
			t.Errorf("%s param %d: got %v, want %v", c.fn, c.param, got, c.want)
		}
	}
}

func TestSummarizeResultEffects(t *testing.T) {
	files, info := loadSummarySrc(t)
	sums := flow.Summarize(files, info, summaryTable)
	cases := []struct {
		fn     string
		result int
		want   flow.RetEffect
	}{
		{"returnsAcquired", 0, flow.RetAlways},
		{"returnsAcquiredLocal", 0, flow.RetAlways},
		{"returnsSometimes", 0, flow.RetSome},
		// Propagated through the wrapper's own summary.
		{"viaWrapper", 0, flow.RetAlways},
		// Tuple forwarding: `return acquire2()`.
		{"forwardsTuple", 0, flow.RetAlways},
		{"forwardsTuple", 1, flow.RetNever},
		{"borrows", 0, flow.RetNever},
	}
	for _, c := range cases {
		sum := summaryByName(t, sums, c.fn)
		if got := sum.Results[c.result]; got != c.want {
			t.Errorf("%s result %d: got %v, want %v", c.fn, c.result, got, c.want)
		}
	}
}

func TestSummarizeRecursionFlags(t *testing.T) {
	files, info := loadSummarySrc(t)
	sums := flow.Summarize(files, info, summaryTable)
	for _, name := range []string{"countdown", "pingPong", "pongPing"} {
		if !summaryByName(t, sums, name).Recursive {
			t.Errorf("%s: expected Recursive", name)
		}
	}
	for _, name := range []string{"releasesAlways", "chained", "viaWrapper"} {
		if summaryByName(t, sums, name).Recursive {
			t.Errorf("%s: unexpected Recursive", name)
		}
	}
}
