package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The AST helpers the analyzers share, one copy of each. (An
// identifier's object is types.Info.ObjectOf and a parenthesized
// expression's inside is ast.Unparen: the standard library has those.)

// InspectSkipLits walks n in pre-order without descending into function
// literals (other than n itself): a closure runs elsewhere and is
// analyzed as its own function.
func InspectSkipLits(n ast.Node, fn func(ast.Node)) {
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

// CalleeFunc resolves a call's statically known callee, or nil for
// calls through function values, conversions, and builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// NilCompare matches `x == nil` / `x != nil`, returning x's object and
// whether the operator is !=.
func NilCompare(info *types.Info, cond ast.Expr) (obj types.Object, isNeq, ok bool) {
	be, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false, false
	}
	varSide := be.X
	switch {
	case isNilIdentExpr(info, be.Y):
	case isNilIdentExpr(info, be.X):
		varSide = be.Y
	default:
		return nil, false, false
	}
	id, isIdent := ast.Unparen(varSide).(*ast.Ident)
	if !isIdent || info.ObjectOf(id) == nil {
		return nil, false, false
	}
	return info.ObjectOf(id), be.Op == token.NEQ, true
}

func isNilIdentExpr(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil || id.Name == "nil"
}

// IsObject reports whether x is, parentheses apart, an identifier for obj.
func IsObject(info *types.Info, x ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	return ok && info.ObjectOf(id) == obj
}

func usesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(inner ast.Node) bool {
		if id, ok := inner.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// capturedByFuncLit reports whether any function literal within body
// references obj.
func capturedByFuncLit(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && !found {
			found = usesObject(info, fl.Body, obj)
			return false
		}
		return !found
	})
	return found
}

// accountedObligationIdents collects the occurrences of obj within n
// that engine.uses already interprets, or that only read through it —
// field selections (b.sw.Handoff(...), b.clean = true), call receivers
// and direct operands, the called value itself, assignment targets,
// `_ = obj`, nil comparisons — so any other occurrence can be treated
// as an adoption.
func accountedObligationIdents(info *types.Info, n ast.Node, obj types.Object) map[*ast.Ident]bool {
	accounted := make(map[*ast.Ident]bool)
	account := func(x ast.Expr) {
		if IsObject(info, x, obj) {
			accounted[ast.Unparen(x).(*ast.Ident)] = true
		}
	}
	InspectSkipLits(n, func(inner ast.Node) {
		switch x := inner.(type) {
		case *ast.SelectorExpr:
			// A field read through the resource; a method value would
			// bind it.
			if _, isField := info.Uses[x.Sel].(*types.Var); isField {
				account(x.X)
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				account(sel.X)
			}
			account(x.Fun)
			for _, a := range x.Args {
				account(a)
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				account(lhs)
			}
			// `_ = obj` keeps or discards the value in place; it is not a
			// handoff.
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
						account(x.Rhs[i])
					}
				}
			}
		case *ast.BinaryExpr:
			// Comparing the resource against nil examines it, nothing more.
			if isNilIdentExpr(info, x.X) || isNilIdentExpr(info, x.Y) {
				account(x.X)
				account(x.Y)
			}
		}
	})
	return accounted
}

// matches reports whether fn is the callee a table row names: pkg is an
// import-path suffix, recv a receiver type name, and an empty pkg, recv
// or name matches any.
func matches(fn *types.Func, pkg, recv, name string) bool {
	if name != "" && fn.Name() != name {
		return false
	}
	if pkg != "" {
		if fn.Pkg() == nil {
			return false
		}
		if p := fn.Pkg().Path(); p != pkg && !strings.HasSuffix(p, "/"+pkg) {
			return false
		}
	}
	if recv != "" {
		r := fn.Type().(*types.Signature).Recv()
		if r == nil {
			return false
		}
		t := r.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); !ok || n.Obj().Name() != recv {
			return false
		}
	}
	return true
}

func isNiladicFunc(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

func isBoolOrError(t types.Type) bool {
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Kind() == types.Bool
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isBasic(t types.Type) bool {
	_, ok := t.Underlying().(*types.Basic)
	return ok
}
