// Package poolpair proves the exactly-once release contract of the
// relay stack's paired resources:
//
//   - pooled readers:      httprelay.GetReader → httprelay.PutReader
//   - pooled transports:   backendPool.get     → backendPool.put
//     (or backendConn.close, which closes the conn and recycles the
//     reader it travels with)
//   - dialed transports:   dialBackend         → Close
//
// PR 7 made the hot path allocation-free by pooling these resources;
// a path that forgets the release quietly reintroduces the per-request
// allocation (and, for conns, leaks a file descriptor), while a double
// release poisons the pool with a reader two goroutines share. In the
// style of donecall, the analyzer interprets every path through a
// function tracking each acquired resource and reports:
//
//   - the acquire result discarded (bare call statement, or assigned
//     to _);
//   - a path that reaches an exit with the resource live (leaked);
//   - a path that releases twice;
//   - a release on a path where the acquire's ok was false or err was
//     non-nil (release of a resource never acquired);
//   - the resource overwritten while live.
//
// Unlike donecall, a call is not automatically an escape: the analyzer
// consults flow.Summarize's bottom-up interprocedural summaries, so a
// helper that always releases its parameter discharges the caller's
// obligation, a helper that only reads it (httprelay's relay functions,
// handoff.ReadHeader, any method on the resource except Close) leaves
// the obligation with the caller, and a helper that stores it adopts
// it. Ownership transfer at birth is recognized structurally: an
// acquire nested in a composite literal or call argument (the reader
// newBackendConn gets in rehandoff.go) is never tracked, and a
// resource captured by a closure is the closure's.
//
// Escape hatch: //lard:allow poolpair — reason, on or above the line.
package poolpair

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lard/internal/analysis"
	"lard/internal/analysis/flow"
)

// Analyzer is the poolpair pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolpair",
	Doc:  "check that pooled readers, pooled transports, and dialed conns are released exactly once on every path",
	Run:  run,
}

// pairSpec describes one acquire/release pair.
type pairSpec struct {
	what    string // noun for diagnostics, e.g. "pooled reader"
	release string // how the resource is released, for diagnostics
	results []int  // result indices that carry an obligation
	okIdx   int    // bool result gating the acquisition, -1 if none
	errIdx  int    // error result gating the acquisition, -1 if none
}

// acquireSpec matches the configured acquire entry points.
func acquireSpec(info *types.Info, call *ast.CallExpr) *pairSpec {
	fn := flow.CalleeFunc(info, call)
	if fn == nil {
		return nil
	}
	switch {
	case fn.Name() == "GetReader" && pkgSuffix(fn, "internal/httprelay"):
		return &pairSpec{what: "pooled reader", release: "httprelay.PutReader",
			results: []int{0}, okIdx: -1, errIdx: -1}
	case fn.Name() == "get" && recvNamed(fn) == "backendPool":
		return &pairSpec{what: "pooled transport", release: "pool.put (or its close)",
			results: []int{0}, okIdx: 1, errIdx: -1}
	case fn.Name() == "dialBackend":
		return &pairSpec{what: "dialed conn", release: "Close",
			results: []int{0}, okIdx: -1, errIdx: 1}
	}
	return nil
}

// releaseArgs matches the configured release entry points, returning
// the operand positions released (-1 = receiver).
func releaseArgs(info *types.Info, call *ast.CallExpr) []int {
	fn := flow.CalleeFunc(info, call)
	if fn == nil {
		return nil
	}
	switch {
	case fn.Name() == "PutReader" && pkgSuffix(fn, "internal/httprelay"):
		return []int{0}
	case fn.Name() == "put" && recvNamed(fn) == "backendPool":
		return []int{0}
	case fn.Name() == "Close" && len(call.Args) == 0 && isMethod(fn),
		fn.Name() == "close" && recvNamed(fn) == "backendConn":
		return []int{-1}
	}
	return nil
}

// borrowedArg reports externally known callees that read a resource
// argument without retaining or releasing it.
func borrowedArg(info *types.Info, call *ast.CallExpr, pos int) bool {
	fn := flow.CalleeFunc(info, call)
	if fn == nil || pos < 0 {
		return false
	}
	if pkgSuffix(fn, "internal/httprelay") {
		// httprelay's head readers and relay functions read through a
		// caller-owned reader and never retain it; GetReader/PutReader
		// are the package's only ownership-moving entry points and are
		// matched above.
		return fn.Name() != "GetReader" && fn.Name() != "PutReader"
	}
	if pkgSuffix(fn, "internal/handoff") {
		// Header parsing and the send path read through their reader /
		// write to their conn without retaining either.
		switch fn.Name() {
		case "ReadHeader", "Send":
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	cfg := &flow.SummaryConfig{
		Info:        info,
		ReleaseArgs: func(call *ast.CallExpr) []int { return releaseArgs(info, call) },
		AcquireResults: func(call *ast.CallExpr) []int {
			if sp := acquireSpec(info, call); sp != nil {
				return sp.results
			}
			return nil
		},
		Borrows:    func(call *ast.CallExpr, pos int) bool { return borrowedArg(info, call, pos) },
		Terminates: analysis.PathTerminates,
	}
	c := &checker{
		pass: pass,
		cfg:  cfg,
		sums: flow.Summarize(pass.Files, cfg),
		seen: make(map[string]bool),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					c.checkFunc(fl.Body)
				}
				return true
			})
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	cfg  *flow.SummaryConfig
	sums map[*types.Func]*flow.Summary
	seen map[string]bool
}

// Path states of one obligation.
const (
	none      uint8 = iota // before the defining assignment
	undecided              // acquired; ok/err not yet examined
	live                   // held; must be released exactly once
	nilv                   // never acquired (ok false / err non-nil)
	released               // released once
	escaped                // ownership transferred; stop tracking
)

// obligation is one tracked acquire site.
type obligation struct {
	define *ast.AssignStmt
	spec   *pairSpec
	name   string // variable name, for diagnostics
	line   int
	obj    types.Object
	okObj  types.Object
	errObj types.Object
	start  uint8
}

func (c *checker) checkFunc(body *ast.BlockStmt) {
	for _, ob := range c.collect(body) {
		c.interpret(body, ob)
	}
}

// collect finds acquire sites in one function body, reporting
// immediately-wrong shapes (discarded results) and returning the
// obligations worth path-tracking.
func (c *checker) collect(body *ast.BlockStmt) []*obligation {
	info := c.pass.TypesInfo
	var obs []*obligation
	inspectSkippingFuncLit(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if sp := c.anyAcquireSpec(call); sp != nil {
					c.reportf(call.Pos(),
						"%s from %s is discarded: it is never released (release with %s)",
						sp.what, calleeName(call), sp.release)
				}
			}
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return
			}
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok {
				return
			}
			sp := c.anyAcquireSpec(call)
			if sp == nil {
				return
			}
			var okObj, errObj types.Object
			if sp.okIdx >= 0 && sp.okIdx < len(st.Lhs) {
				if id, ok := st.Lhs[sp.okIdx].(*ast.Ident); ok && id.Name != "_" {
					okObj = objOf(info, id)
				}
			}
			if sp.errIdx >= 0 && sp.errIdx < len(st.Lhs) {
				if id, ok := st.Lhs[sp.errIdx].(*ast.Ident); ok && id.Name != "_" {
					errObj = objOf(info, id)
				}
			}
			for _, ri := range sp.results {
				if ri >= len(st.Lhs) {
					continue
				}
				id, isIdent := st.Lhs[ri].(*ast.Ident)
				if !isIdent {
					// Stored straight into a field or element: the owner
					// of that location carries the obligation now.
					continue
				}
				if id.Name == "_" {
					c.reportf(call.Pos(),
						"%s from %s is discarded (assigned to _): it is never released (release with %s)",
						sp.what, calleeName(call), sp.release)
					continue
				}
				// Only a freshly defined local is tracked: an assignment
				// to an outer variable (a closure writing through its
				// capture) is owned elsewhere.
				obj := info.Defs[id]
				if obj == nil {
					continue
				}
				if flow.CapturedByFuncLit(info, body, obj) {
					// The resource's lifetime is the closure's.
					continue
				}
				start := live
				if okObj != nil || errObj != nil {
					start = undecided
				}
				obs = append(obs, &obligation{
					define: st,
					spec:   sp,
					name:   id.Name,
					line:   c.pass.Fset.Position(call.Pos()).Line,
					obj:    obj,
					okObj:  okObj,
					errObj: errObj,
					start:  start,
				})
			}
		}
	})
	return obs
}

// anyAcquireSpec matches both the configured acquire entry points and
// package-local wrappers whose summary says a result always carries a
// fresh obligation (flow.RetAlways) — the "returns an acquired
// resource" half of the interprocedural summaries.
func (c *checker) anyAcquireSpec(call *ast.CallExpr) *pairSpec {
	info := c.pass.TypesInfo
	if sp := acquireSpec(info, call); sp != nil {
		return sp
	}
	fn := flow.CalleeFunc(info, call)
	if fn == nil {
		return nil
	}
	sum := c.sums[fn]
	if sum == nil {
		return nil
	}
	var results []int
	for j, r := range sum.Results {
		if r == flow.RetAlways {
			results = append(results, j)
		}
	}
	if len(results) == 0 {
		return nil
	}
	// RetAlways means acquired on every return path, so no ok/err
	// gating applies: the caller must always release.
	return &pairSpec{
		what:    fmt.Sprintf("resource acquired via %s", fn.Name()),
		release: "its paired release func",
		results: results, okIdx: -1, errIdx: -1,
	}
}

// interpret runs the path analysis for one obligation.
func (c *checker) interpret(body *ast.BlockStmt, ob *obligation) {
	info := c.pass.TypesInfo
	sp := ob.spec
	interp := &flow.Interp[uint8]{
		Transfer: func(s uint8, n ast.Node) uint8 {
			if d, ok := n.(*ast.DeferStmt); ok {
				// A deferred release runs at exit; treating it at its
				// lexical position is the same one-release-per-path fact.
				n = d.Call
			}
			if g, ok := n.(*ast.GoStmt); ok {
				if s != none && s != escaped && usesObj(info, g.Call, ob.obj) {
					return escaped
				}
				return s
			}
			if n == ob.define {
				if s == live || s == undecided {
					c.reportf(ob.define.Pos(),
						"%s %s (line %d) is overwritten before being released: it leaks",
						sp.what, ob.name, ob.line)
				}
				return ob.start
			}
			if s == none || s == escaped {
				return s
			}
			accounted := accountedIdents(info, n, ob.obj)
			inspectSkippingFuncLit(n, func(inner ast.Node) {
				if s == escaped {
					return
				}
				switch x := inner.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && objOf(info, id) == ob.obj {
							if s == live || s == undecided {
								c.reportf(x.Pos(),
									"%s %s (line %d) is overwritten before being released: it leaks",
									sp.what, ob.name, ob.line)
							}
							s = escaped
						}
					}
				case *ast.CallExpr:
					ps := flow.CallPositions(info, x, ob.obj)
					if len(ps) == 0 {
						return
					}
					switch flow.ClassifyCall(c.cfg, c.sums, x, ps) {
					case flow.EffReleasesAlways:
						switch s {
						case live, undecided:
							s = released
						case released:
							c.reportf(x.Pos(),
								"%s %s (line %d) may already have been released on this path",
								sp.what, ob.name, ob.line)
						case nilv:
							c.reportf(x.Pos(),
								"%s %s (line %d) is released on a path where it was never acquired",
								sp.what, ob.name, ob.line)
						}
					case flow.EffReleasesSome:
						// Half-released by the callee: nothing provable
						// either way from here.
						s = escaped
					case flow.EffAdopts:
						s = escaped
					}
				case *ast.Ident:
					if objOf(info, x) == ob.obj && !accounted[x] {
						// Returned, stored, address taken, passed inside a
						// composite: ownership moves.
						s = escaped
					}
				}
			})
			return s
		},
		Refine: func(s uint8, cond ast.Expr, taken bool) (uint8, bool) {
			if s == none || s == escaped || s == released {
				return s, true
			}
			if obj, isNeq, ok := nilCompare(info, cond); ok {
				switch obj {
				case ob.obj:
					nonNil := isNeq == taken
					if nonNil {
						if s == nilv {
							return s, false
						}
						if s == undecided {
							return live, true
						}
					} else {
						if s == live {
							return s, false
						}
						if s == undecided {
							return nilv, true
						}
					}
				case ob.errObj:
					if ob.errObj == nil {
						return s, true
					}
					errNonNil := isNeq == taken
					if errNonNil {
						if s == live {
							return s, false
						}
						if s == undecided {
							return nilv, true
						}
					} else {
						if s == nilv {
							return s, false
						}
						if s == undecided {
							return live, true
						}
					}
				}
				return s, true
			}
			if ob.okObj != nil {
				if obj, negated, ok := boolCond(info, cond); ok && obj == ob.okObj {
					acquired := negated != taken // `ok` taken, or `!ok` not taken
					if acquired {
						if s == nilv {
							return s, false
						}
						if s == undecided {
							return live, true
						}
					} else {
						if s == live {
							return s, false
						}
						if s == undecided {
							return nilv, true
						}
					}
				}
			}
			return s, true
		},
		AtExit: func(s uint8, n ast.Node) {
			if s == live || s == undecided {
				c.reportf(n.Pos(),
					"%s %s (line %d) is not released on this path: release with %s",
					sp.what, ob.name, ob.line, sp.release)
			}
		},
		Terminates: analysis.PathTerminates,
	}
	interp.Run(body, none)
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%v:%s", pos, msg)
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.pass.Reportf(pos, "%s", msg)
}

// --- helpers ---

func pkgSuffix(fn *types.Func, suffix string) bool {
	if fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

func calleeName(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "acquire"
}

// boolCond matches a bare boolean condition `ok` or `!ok`, returning
// the variable's object and whether it is negated.
func boolCond(info *types.Info, cond ast.Expr) (obj types.Object, negated, ok bool) {
	e := unparen(cond)
	if ue, isNot := e.(*ast.UnaryExpr); isNot && ue.Op == token.NOT {
		negated = true
		e = unparen(ue.X)
	}
	id, isIdent := e.(*ast.Ident)
	if !isIdent {
		return nil, false, false
	}
	o := objOf(info, id)
	if o == nil {
		return nil, false, false
	}
	return o, negated, true
}

// accountedIdents collects the occurrences of obj within n that the
// Transfer switch already interprets, or that only read through it
// (selections from it, direct call operands, assignment targets,
// `_ = obj`, nil comparisons) so any other occurrence can be treated as
// an escape.
func accountedIdents(info *types.Info, n ast.Node, obj types.Object) map[*ast.Ident]bool {
	accounted := make(map[*ast.Ident]bool)
	inspectSkippingFuncLit(n, func(inner ast.Node) {
		switch x := inner.(type) {
		case *ast.SelectorExpr:
			// A method called on the resource, or a field read through it
			// (b.sw.Handoff(...), b.clean = true): the resource itself
			// does not move.
			if id, ok := unparen(x.X).(*ast.Ident); ok && objOf(info, id) == obj {
				accounted[id] = true
			}
		case *ast.CallExpr:
			for _, a := range x.Args {
				if id, ok := unparen(a).(*ast.Ident); ok && objOf(info, id) == obj {
					accounted[id] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && objOf(info, id) == obj {
					accounted[id] = true
				}
			}
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
						if rid, ok := unparen(x.Rhs[i]).(*ast.Ident); ok && objOf(info, rid) == obj {
							accounted[rid] = true
						}
					}
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				if isNilIdent(info, x.X) || isNilIdent(info, x.Y) {
					for _, side := range []ast.Expr{x.X, x.Y} {
						if id, ok := unparen(side).(*ast.Ident); ok && objOf(info, id) == obj {
							accounted[id] = true
						}
					}
				}
			}
		}
	})
	return accounted
}

// nilCompare matches `x == nil` / `x != nil`, returning x's object and
// whether the operator is !=.
func nilCompare(info *types.Info, cond ast.Expr) (obj types.Object, isNeq, ok bool) {
	be, isBin := unparen(cond).(*ast.BinaryExpr)
	if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false, false
	}
	var varSide ast.Expr
	switch {
	case isNilIdent(info, be.Y):
		varSide = be.X
	case isNilIdent(info, be.X):
		varSide = be.Y
	default:
		return nil, false, false
	}
	id, isIdent := unparen(varSide).(*ast.Ident)
	if !isIdent {
		return nil, false, false
	}
	o := objOf(info, id)
	if o == nil {
		return nil, false, false
	}
	return o, be.Op == token.NEQ, true
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil || id.Name == "nil"
}

func usesObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(inner ast.Node) bool {
		if id, ok := inner.(*ast.Ident); ok && objOf(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// inspectSkippingFuncLit walks n in pre-order without descending into
// function literals.
func inspectSkippingFuncLit(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(inner ast.Node) bool {
		if inner == nil {
			return false
		}
		if _, ok := inner.(*ast.FuncLit); ok && inner != n {
			return false
		}
		fn(inner)
		return true
	})
}
