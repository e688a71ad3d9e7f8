// Package donecall proves the done-func contract of the dispatch layer.
//
// Every dispatch-layer call — Dispatch, dispatch, Redispatch, claimNode,
// claimFallback, claimLocked, attachBackend — returns a done func()
// that releases the claimed slot on a backend node. The contract is
// exactly-once: a path that never calls done leaks the slot (the node's
// reported load stays high forever and the LARD policy routes around a
// phantom connection); a path that calls it twice drives the load
// negative and the policy floods the node. In the style of the vet
// lostcancel check, this analyzer interprets every path through a
// function and reports:
//
//   - the done result discarded (assigned to _ or the call used as a
//     bare statement);
//   - a path that returns without calling done while it may be live;
//   - a path on which done may be called twice;
//   - done called on a path where the accompanying error is non-nil
//     (the dispatch layer returns a nil done alongside an error);
//   - done overwritten while still live.
//
// The analysis understands `if err != nil` / `if done == nil` branch
// refinement, treats `return done` and passing done to another function
// or storing it in a struct as transferring the obligation (escape),
// and analyzes closures as separate functions (a done captured by a
// closure escapes to it).
//
// Escape hatch: //lard:allow donecall on (or above) the flagged line.
package donecall

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"lard/internal/analysis"
	"lard/internal/analysis/flow"
)

// Analyzer is the donecall pass.
var Analyzer = &analysis.Analyzer{
	Name: "donecall",
	Doc:  "check that the done func returned by dispatch-layer calls is called exactly once on every path",
	Run:  run,
}

// trackedNames are the dispatch-layer callees whose done result is
// checked.
var trackedNames = map[string]bool{
	"Dispatch":      true,
	"dispatch":      true,
	"Redispatch":    true,
	"claimNode":     true,
	"claimFallback": true,
	"claimLocked":   true,
	"attachBackend": true,
}

// Path states of one obligation.
const (
	none      uint8 = iota // before the defining assignment
	undecided              // assigned; err not yet examined (done may be nil)
	live                   // non-nil; must be called exactly once
	nilv                   // nil (error path); must not be called
	called                 // called once
	escaped                // responsibility transferred; stop tracking
)

type checker struct {
	pass *analysis.Pass
	seen map[string]bool
}

// obligation is one tracked dispatch-layer call site.
type obligation struct {
	define  *ast.AssignStmt
	call    *ast.CallExpr
	callee  string
	line    int
	doneObj types.Object // nil if unreachable (blank etc.)
	errObj  types.Object // nil when the callee has no error result
	start   uint8        // live when the callee returns no error
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, seen: make(map[string]bool)}
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

func (c *checker) checkFunc(body *ast.BlockStmt) {
	obs := c.collect(body)
	for _, ob := range obs {
		c.interpret(body, ob)
	}
}

// collect finds the tracked call sites in one function body, reporting
// immediately-wrong shapes (discarded done) and returning the
// obligations worth path-tracking.
func (c *checker) collect(body *ast.BlockStmt) []*obligation {
	info := c.pass.TypesInfo
	var obs []*obligation

	inspectSkippingFuncLit(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if name, doneIdx, _ := c.trackedCall(call); doneIdx >= 0 {
					c.reportf(call.Pos(),
						"%s returns a done func that is discarded: it must be called exactly once", name)
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
			name, doneIdx, errIdx := c.trackedCall(call)
			if doneIdx < 0 || len(st.Lhs) <= doneIdx {
				return
			}
			doneExpr := st.Lhs[doneIdx]
			id, isIdent := doneExpr.(*ast.Ident)
			if !isIdent {
				// Stored straight into a field or element: the owner of
				// that location carries the obligation now.
				return
			}
			if id.Name == "_" {
				c.reportf(call.Pos(),
					"%s returns a done func that is discarded (assigned to _): it must be called exactly once", name)
				return
			}
			doneObj := info.Defs[id]
			if doneObj == nil {
				doneObj = info.Uses[id]
			}
			if doneObj == nil {
				return
			}
			ob := &obligation{
				define:  st,
				call:    call,
				callee:  name,
				line:    c.pass.Fset.Position(call.Pos()).Line,
				doneObj: doneObj,
				start:   undecided,
			}
			if errIdx < 0 {
				ob.start = live
			} else if errIdx < len(st.Lhs) {
				if eid, ok := st.Lhs[errIdx].(*ast.Ident); ok && eid.Name != "_" {
					if obj := info.Defs[eid]; obj != nil {
						ob.errObj = obj
					} else {
						ob.errObj = info.Uses[eid]
					}
				}
			}
			// A done captured by any closure in this function escapes to
			// it: the closure runs at an unknown time.
			if capturedByFuncLit(info, body, ob.doneObj) {
				return
			}
			obs = append(obs, ob)
		}
	})
	return obs
}

// trackedCall reports whether call is a dispatch-layer call, returning
// its display name and the result indices of the done func and the
// error (-1 when absent / not tracked).
func (c *checker) trackedCall(call *ast.CallExpr) (name string, doneIdx, errIdx int) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return "", -1, -1
	}
	if !trackedNames[name] {
		return "", -1, -1
	}
	doneIdx, errIdx = -1, -1
	t := c.pass.TypesInfo.TypeOf(call)
	switch rt := t.(type) {
	case *types.Tuple:
		for i := 0; i < rt.Len(); i++ {
			if doneIdx < 0 && isNiladicFunc(rt.At(i).Type()) {
				doneIdx = i
			}
			if errIdx < 0 && isErrorType(rt.At(i).Type()) {
				errIdx = i
			}
		}
	default:
		if isNiladicFunc(t) {
			doneIdx = 0
		}
	}
	if doneIdx < 0 {
		return "", -1, -1
	}
	return name, doneIdx, errIdx
}

// interpret runs the path analysis for one obligation.
func (c *checker) interpret(body *ast.BlockStmt, ob *obligation) {
	info := c.pass.TypesInfo
	interp := &flow.Interp[uint8]{
		Transfer: func(s uint8, n ast.Node) uint8 {
			if d, ok := n.(*ast.DeferStmt); ok {
				n = d.Call
			}
			if n == ob.define {
				if s == live || s == undecided {
					c.reportf(ob.define.Pos(),
						"done func from %s (line %d) is overwritten before being called: the claimed slot leaks", ob.callee, ob.line)
				}
				return ob.start
			}
			if s == none || s == escaped {
				// Not yet defined / no longer ours: only the defining
				// assignment matters.
				return s
			}
			accounted := accountedIdents(info, n, ob.doneObj)
			inspectSkippingFuncLit(n, func(inner ast.Node) {
				switch x := inner.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && objOf(info, id) == ob.doneObj {
							if s == live || s == undecided {
								c.reportf(x.Pos(),
									"done func from %s (line %d) is overwritten before being called: the claimed slot leaks", ob.callee, ob.line)
							}
							s = escaped
						}
					}
				case *ast.CallExpr:
					if id, ok := x.Fun.(*ast.Ident); ok && objOf(info, id) == ob.doneObj {
						switch s {
						case live, undecided:
							s = called
						case called:
							c.reportf(x.Pos(),
								"done func from %s (line %d) may already have been called on this path", ob.callee, ob.line)
						case nilv:
							c.reportf(x.Pos(),
								"done func from %s (line %d) is called on a path where it is nil (err != nil)", ob.callee, ob.line)
						}
					}
				case *ast.Ident:
					if objOf(info, x) == ob.doneObj && !accounted[x] {
						// Any other use — argument, return value, copy,
						// comparison to a func var — hands the obligation
						// off.
						s = escaped
					}
				}
			})
			return s
		},
		Refine: func(s uint8, cond ast.Expr, taken bool) (uint8, bool) {
			if s == none || s == escaped || s == called {
				return s, true
			}
			obj, isNeq, ok := nilCompare(info, cond)
			if !ok {
				return s, true
			}
			switch obj {
			case ob.doneObj:
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
		},
		AtExit: func(s uint8, n ast.Node) {
			if s == live || s == undecided {
				c.reportf(n.Pos(),
					"done func from %s (line %d) is not called on this path: the node's claimed slot leaks", ob.callee, ob.line)
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

// accountedIdents collects the identifier occurrences of doneObj within
// n that the Transfer switch already interprets (call operands,
// assignment targets, nil comparisons) so any other occurrence can be
// treated as an escape.
func accountedIdents(info *types.Info, n ast.Node, doneObj types.Object) map[*ast.Ident]bool {
	accounted := make(map[*ast.Ident]bool)
	inspectSkippingFuncLit(n, func(inner ast.Node) {
		switch x := inner.(type) {
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && objOf(info, id) == doneObj {
				accounted[id] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && objOf(info, id) == doneObj {
					accounted[id] = true
				}
			}
			// `_ = done` keeps or discards the value in place; it is not
			// a handoff, so the leak check must keep tracking.
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
						if rid, ok := unparen(x.Rhs[i]).(*ast.Ident); ok && objOf(info, rid) == doneObj {
							accounted[rid] = true
						}
					}
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				for _, side := range []ast.Expr{x.X, x.Y} {
					if id, ok := unparen(side).(*ast.Ident); ok && objOf(info, id) == doneObj {
						if isNilIdent(info, x.X) || isNilIdent(info, x.Y) {
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

func capturedByFuncLit(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		fl, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(fl.Body, func(inner ast.Node) bool {
			if id, ok := inner.(*ast.Ident); ok && objOf(info, id) == obj {
				found = true
			}
			return !found
		})
		return false
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

func isNiladicFunc(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
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
