// Interprocedural obligation summaries. Summarize computes, bottom-up
// over one package's call graph, what each function does with the
// resource obligations it touches: whether calling it releases the
// obligation carried by its N-th parameter (on all paths, some paths,
// or never), whether it adopts the parameter outright (stores it,
// returns it, hands it to code the analysis cannot see), and whether
// its results carry freshly acquired obligations. The path checker
// (obligation.go) consults these summaries through classifyCall so a
// call is an escape only when it genuinely might be, not merely because
// it is a call.
//
// The call graph is the package's own FuncDecls; calls that leave the
// package are classified by the Table's rows (known releasers,
// acquirers, and borrowers) and are otherwise conservative
// (EffAdopts). Strongly connected components — recursion, mutual or
// direct — are cut conservatively: a call to a function whose summary
// is not yet computed counts as an adoption, so cyclic functions
// summarize to EffAdopts for any parameter they forward around the
// cycle. Function literals are never entered (they run at an unknown
// time); a parameter one captures is adopted.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Effect is what a callee does with the obligation carried by one of
// its parameters.
type Effect uint8

const (
	// EffNone: the function borrows the parameter — reads through it,
	// never releases or retains it. The caller's obligation is intact.
	EffNone Effect = iota

	// EffReleasesSome: released on some paths through the callee but
	// not all. The caller can no longer prove anything either way.
	EffReleasesSome

	// EffReleasesAlways: released on every path; the caller's
	// obligation is discharged by the call.
	EffReleasesAlways

	// EffAdopts: ownership transfers to the callee (stored, returned,
	// captured, passed to unknown code). The caller stops tracking.
	EffAdopts
)

func (e Effect) String() string {
	switch e {
	case EffNone:
		return "none"
	case EffReleasesSome:
		return "releases-some"
	case EffReleasesAlways:
		return "releases-always"
	case EffAdopts:
		return "adopts"
	}
	return "invalid"
}

// RetEffect is whether one function result carries a freshly acquired
// obligation the caller must release.
type RetEffect uint8

const (
	RetNever  RetEffect = iota // result never carries an obligation
	RetSome                    // acquired on some return paths
	RetAlways                  // acquired on every return path
)

func (r RetEffect) String() string {
	switch r {
	case RetNever:
		return "never"
	case RetSome:
		return "some"
	case RetAlways:
		return "always"
	}
	return "invalid"
}

// Summary is one function's interprocedural obligation summary.
type Summary struct {
	// Params holds the effect on each declared parameter (receivers are
	// not summarized; a method call on a resource is a borrow unless a
	// Release row names it, e.g. Close).
	Params []Effect

	// Results holds, per result, whether it carries a fresh obligation.
	Results []RetEffect

	// Recursive marks functions in a call cycle; their summaries were
	// computed with the cycle cut conservatively.
	Recursive bool
}

// Summarize computes obligation summaries for every FuncDecl with a
// body in files, bottom-up over the package-local call graph.
func Summarize(files []*ast.File, info *types.Info, t *Table) map[*types.Func]*Summary {
	return newEngine(files, info, t).sums
}

func newEngine(files []*ast.File, info *types.Info, t *Table) *engine {
	e := &engine{
		t:     t,
		info:  info,
		decls: make(map[*types.Func]*ast.FuncDecl),
		sums:  make(map[*types.Func]*Summary),
	}
	var order []*types.Func // declaration order, for deterministic SCC output
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			e.decls[fn] = fd
			order = append(order, fn)
		}
	}
	edges := make(map[*types.Func][]*types.Func, len(order))
	for _, fn := range order {
		edges[fn] = e.callees(e.decls[fn])
	}
	// Tarjan emits SCCs callees-first, so each function (outside its own
	// cycle) sees its callees' finished summaries; within a cycle the
	// missing summary reads as EffAdopts.
	for _, comp := range sccs(order, edges) {
		rec := len(comp) > 1 || hasEdge(edges, comp[0], comp[0])
		for _, fn := range comp {
			e.sums[fn] = e.summarize(fn, e.decls[fn], rec)
		}
	}
	return e
}

// callees lists the package-local functions fd calls directly (calls
// inside function literals excluded — a closure runs at unknown time
// and its captures are handled as adoptions).
func (e *engine) callees(fd *ast.FuncDecl) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	InspectSkipLits(fd.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if fn := CalleeFunc(e.info, call); fn != nil && e.decls[fn] != nil && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
	})
	return out
}

func hasEdge(edges map[*types.Func][]*types.Func, from, to *types.Func) bool {
	for _, fn := range edges[from] {
		if fn == to {
			return true
		}
	}
	return false
}

func (e *engine) summarize(fn *types.Func, fd *ast.FuncDecl, rec bool) *Summary {
	sig := fn.Type().(*types.Signature)
	s := &Summary{
		Recursive: rec,
		Params:    make([]Effect, sig.Params().Len()),
		Results:   make([]RetEffect, sig.Results().Len()),
	}
	for i := range s.Params {
		s.Params[i] = e.paramEffect(fd, sig.Params().At(i))
	}
	e.resultEffects(fd, s.Results)
	return s
}

// Per-parameter path states for the summary interpretation.
const (
	pLive     uint8 = iota // obligation with the caller, untouched so far
	pMaybe                 // passed through a releases-some callee
	pReleased              // released on this path
	pEscaped               // adopted: stored, returned, unknown call
)

// paramEffect runs the path interpreter over fd's body tracking one
// parameter's obligation and folds the per-exit states into an Effect.
func (e *engine) paramEffect(fd *ast.FuncDecl, obj *types.Var) Effect {
	if obj.Name() == "" || obj.Name() == "_" {
		return EffNone // unreferencable: cannot be released or retained
	}
	if isBasic(obj.Type()) {
		return EffNone // a basic value cannot carry an obligation
	}
	if capturedByFuncLit(e.info, fd.Body, obj) {
		return EffAdopts
	}
	var (
		escaped     bool
		exits       int
		releasedAll = true
		releasedAny bool
	)
	interp := &Interp[uint8]{
		Transfer: func(s uint8, n ast.Node) uint8 {
			e.uses(n, obj, func(eff Effect, _ token.Pos) {
				switch {
				case s == pEscaped:
				case eff == EffReleasesAlways:
					s = pReleased
				case eff == EffReleasesSome:
					if s == pLive {
						s = pMaybe
					}
				default:
					// Adopted, or rebound: the incoming value's fate is
					// no longer trackable here.
					s = pEscaped
				}
			})
			return s
		},
		AtExit: func(s uint8, n ast.Node) {
			exits++
			switch s {
			case pReleased:
				releasedAny = true
			case pMaybe:
				releasedAny = true
				releasedAll = false
			case pEscaped:
				escaped = true
			default:
				releasedAll = false
			}
		},
	}
	interp.Run(fd.Body, pLive)
	switch {
	case escaped:
		return EffAdopts
	case exits > 0 && releasedAll:
		return EffReleasesAlways
	case releasedAny:
		return EffReleasesSome
	default:
		return EffNone
	}
}

// resultEffects fills out[j] with whether fd's j-th result carries a
// fresh obligation, by classifying every return statement.
func (e *engine) resultEffects(fd *ast.FuncDecl, out []RetEffect) {
	if len(out) == 0 {
		return
	}
	acquired := e.acquiredLocals(fd)
	counts := make([]int, len(out))
	total := 0
	InspectSkipLits(fd.Body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		total++
		if len(ret.Results) == 1 && len(out) > 1 {
			// Tuple forwarding: `return f()`.
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				for _, j := range e.acquireIndices(call) {
					if j < len(counts) {
						counts[j]++
					}
				}
			}
			return
		}
		for j, r := range ret.Results {
			if j < len(counts) && e.exprAcquired(r, acquired) {
				counts[j]++
			}
		}
	})
	for j := range out {
		switch {
		case total > 0 && counts[j] == total:
			out[j] = RetAlways
		case counts[j] > 0:
			out[j] = RetSome
		}
	}
}

// acquireIndices returns the result indices of call that carry a fresh
// obligation. (A wrapper's RetSome results are deliberately not
// propagated: its caller cannot be obliged to release what may not
// exist.)
func (e *engine) acquireIndices(call *ast.CallExpr) []int {
	if a := e.acquireAt(call); a != nil {
		return a.results
	}
	return nil
}

// exprAcquired reports whether a single-valued return operand carries a
// fresh obligation: a direct acquiring call, or a single-assignment
// local bound to one.
func (e *engine) exprAcquired(r ast.Expr, acquired map[types.Object]bool) bool {
	switch x := ast.Unparen(r).(type) {
	case *ast.CallExpr:
		for _, j := range e.acquireIndices(x) {
			if j == 0 {
				return true
			}
		}
	case *ast.Ident:
		return acquired[e.info.ObjectOf(x)]
	}
	return false
}

// acquiredLocals finds locals assigned exactly once, from an acquiring
// call, so `br := GetReader(c); ...; return br` summarizes as returning
// an acquired resource.
func (e *engine) acquiredLocals(fd *ast.FuncDecl) map[types.Object]bool {
	cand := make(map[types.Object]bool)
	assigns := make(map[types.Object]int)
	InspectSkipLits(fd.Body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := e.info.ObjectOf(id)
			if obj == nil {
				continue
			}
			assigns[obj]++
			if len(as.Rhs) != 1 {
				continue
			}
			if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
				for _, j := range e.acquireIndices(call) {
					if j == i {
						cand[obj] = true
					}
				}
			}
		}
	})
	out := make(map[types.Object]bool)
	for obj := range cand {
		if assigns[obj] == 1 {
			out[obj] = true
		}
	}
	return out
}

// sccs is Tarjan's strongly-connected-components algorithm; components
// are emitted callees-first (reverse topological order).
func sccs(nodes []*types.Func, edges map[*types.Func][]*types.Func) [][]*types.Func {
	index := make(map[*types.Func]int)
	low := make(map[*types.Func]int)
	onStack := make(map[*types.Func]bool)
	var stack []*types.Func
	var out [][]*types.Func
	next := 0
	var strong func(v *types.Func)
	strong = func(v *types.Func) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range edges[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []*types.Func
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	return out
}
