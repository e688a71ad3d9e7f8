// Package relayclass checks error classification on the relay path.
//
// internal/httprelay's contract: ReadRequestHead and ReadResponseHead
// return a *httprelay.MalformedError for protocol violations (those
// deserve a 400) and pass transport errors — io.EOF on a cleanly closed
// keep-alive connection, deadline timeouts — through unwrapped (those
// must NOT surface as 400s; answering a clean close with "400 Bad
// Request" breaks persistent-connection clients and skews error
// accounting). This analyzer enforces the consumer side of the
// contract: in any package importing internal/httprelay, a 400 response
// written under an `err != nil` guard on a head-read error must be
// classified first — by errors.As against *httprelay.MalformedError, a
// type switch on it, or by handing the error to a package-local
// classifier function (internal/frontend's headReadFailed is the
// canonical one).
//
// Escape hatch: //lard:allow relayclass on (or above) the flagged line.
package relayclass

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"lard/internal/analysis"
	"lard/internal/analysis/flow"
)

// Analyzer is the relayclass pass.
var Analyzer = &analysis.Analyzer{
	Name: "relayclass",
	Doc:  "require httprelay head-read errors to be classified (MalformedError or a classifier func) before a 400 response is written",
	Run:  run,
}

const relayPkgPath = "lard/internal/httprelay"

// HeadReads are the httprelay entry points whose error results carry
// the classification contract; lardlint's tests hold each to a live
// function with call sites in the tree.
var HeadReads = []flow.Callee{
	{Pkg: relayPkgPath, Name: "ReadRequestHeadInto"},
	{Pkg: relayPkgPath, Name: "ReadResponseHead"},
}

func run(pass *analysis.Pass) error {
	if !importsRelay(pass.Pkg) {
		return nil
	}
	c := &checker{pass: pass}
	c.classifiers, c.writers400 = scanLocals(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
	}
	return nil
}

type checker struct {
	pass        *analysis.Pass
	classifiers map[types.Object]bool // package-local funcs that classify an error param
	writers400  map[types.Object]bool // package-local funcs that write a 400 status
}

// checkFunc finds head-read error variables and the 400 writes they
// guard.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	info := c.pass.TypesInfo

	// The classifier funcs are exempt from their own rule: inside one,
	// the 400-write is by construction on the classified arm.
	if c.classifiers[info.Defs[fd.Name]] {
		return
	}

	var errObjs []types.Object
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Rhs) != 1 {
			return true
		}
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok || !c.isHeadRead(call) {
			return true
		}
		if len(st.Lhs) != 2 {
			return true
		}
		if id, ok := st.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
			if obj := info.ObjectOf(id); obj != nil {
				errObjs = append(errObjs, obj)
			}
		}
		return true
	})

	for _, errObj := range errObjs {
		if c.classifiesErr(fd.Body, errObj) {
			continue
		}
		// Unclassified: every 400 write under an err-guard is a
		// potential io.EOF-as-400.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ifst, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			var guarded *ast.BlockStmt
			if condHasNilCompare(info, ifst.Cond, errObj, token.NEQ) {
				guarded = ifst.Body
			} else if condHasNilCompare(info, ifst.Cond, errObj, token.EQL) {
				if b, ok := ifst.Else.(*ast.BlockStmt); ok {
					guarded = b
				}
			}
			if guarded == nil {
				return true
			}
			c.flag400Writes(guarded)
			return true
		})
	}
}

// flag400Writes reports every call in the guarded block that writes a
// 400 status, directly or via a package-local 400-writer.
func (c *checker) flag400Writes(block *ast.BlockStmt) {
	info := c.pass.TypesInfo
	ast.Inspect(block, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := flow.CalleeFunc(info, call); callee != nil && c.writers400[callee] {
			c.report(call)
			return true
		}
		for _, arg := range call.Args {
			if has400Literal(arg) {
				c.report(call)
				return false // one report per call, args already covered
			}
		}
		return true
	})
}

func (c *checker) report(call *ast.CallExpr) {
	c.pass.Reportf(call.Pos(),
		"head-read error reaches a 400 response without being classified as *httprelay.MalformedError: io.EOF and timeouts on the relay path must not surface as 400s")
}

// classifiesErr reports whether the function body classifies errObj:
// errors.As against *httprelay.MalformedError, a type switch with a
// MalformedError case, or passing it to a package-local classifier.
func (c *checker) classifiesErr(body *ast.BlockStmt, errObj types.Object) bool {
	info := c.pass.TypesInfo
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if isErrorsAs(info, x) && len(x.Args) == 2 &&
				flow.IsObject(info, x.Args[0], errObj) && isMalformedPtrPtr(info, x.Args[1]) {
				found = true
				return false
			}
			if callee := flow.CalleeFunc(info, x); callee != nil && c.classifiers[callee] {
				for _, arg := range x.Args {
					if flow.IsObject(info, arg, errObj) {
						found = true
						return false
					}
				}
			}
		case *ast.TypeSwitchStmt:
			if typeSwitchOn(info, x, errObj) && switchHasMalformedCase(info, x) {
				found = true
				return false
			}
		case *ast.TypeAssertExpr:
			if flow.IsObject(info, x.X, errObj) && isMalformedPtr(info.TypeOf(x.Type)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// scanLocals finds the package-local classifier functions and
// 400-writer functions.
func scanLocals(pass *analysis.Pass) (classifiers, writers map[types.Object]bool) {
	info := pass.TypesInfo
	classifiers = make(map[types.Object]bool)
	writers = make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			if classifiesAnyErrorParam(info, fd) {
				classifiers[obj] = true
			}
			if has400Literal(fd.Body) {
				writers[obj] = true
			}
		}
	}
	return classifiers, writers
}

// classifiesAnyErrorParam reports whether fd takes an error parameter
// and classifies it against *httprelay.MalformedError.
func classifiesAnyErrorParam(info *types.Info, fd *ast.FuncDecl) bool {
	var errParams []types.Object
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil && isErrorType(obj.Type()) {
				errParams = append(errParams, obj)
			}
		}
	}
	if len(errParams) == 0 {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if isErrorsAs(info, x) && len(x.Args) == 2 && isMalformedPtrPtr(info, x.Args[1]) {
				for _, p := range errParams {
					if flow.IsObject(info, x.Args[0], p) {
						found = true
					}
				}
			}
		case *ast.TypeSwitchStmt:
			for _, p := range errParams {
				if typeSwitchOn(info, x, p) && switchHasMalformedCase(info, x) {
					found = true
				}
			}
		case *ast.TypeAssertExpr:
			for _, p := range errParams {
				if flow.IsObject(info, x.X, p) && isMalformedPtr(info.TypeOf(x.Type)) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// --- small predicates ---

func importsRelay(pkg *types.Package) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == relayPkgPath {
			return true
		}
	}
	return false
}

func (c *checker) isHeadRead(call *ast.CallExpr) bool {
	fn := flow.CalleeFunc(c.pass.TypesInfo, call)
	return fn != nil && slices.ContainsFunc(HeadReads, func(r flow.Callee) bool { return r.Matches(fn) })
}

func isErrorsAs(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "As" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := info.Uses[id].(*types.PkgName)
	return ok && pkgName.Imported().Path() == "errors"
}

// isMalformedPtrPtr matches &m where m is *httprelay.MalformedError
// (the second argument shape of errors.As).
func isMalformedPtrPtr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return isMalformedPtr(ptr.Elem())
}

func isMalformedPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "MalformedError" && obj.Pkg() != nil && obj.Pkg().Path() == relayPkgPath
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func condHasNilCompare(info *types.Info, cond ast.Expr, obj types.Object, op token.Token) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if o, isNeq, ok := flow.NilCompare(info, e); ok && o == obj && isNeq == (op == token.NEQ) {
				found = true
			}
		}
		return true
	})
	return found
}

func typeSwitchOn(info *types.Info, st *ast.TypeSwitchStmt, obj types.Object) bool {
	var x ast.Expr
	switch a := st.Assign.(type) {
	case *ast.ExprStmt:
		ta, ok := a.X.(*ast.TypeAssertExpr)
		if !ok {
			return false
		}
		x = ta.X
	case *ast.AssignStmt:
		if len(a.Rhs) != 1 {
			return false
		}
		ta, ok := a.Rhs[0].(*ast.TypeAssertExpr)
		if !ok {
			return false
		}
		x = ta.X
	default:
		return false
	}
	return flow.IsObject(info, x, obj)
}

func switchHasMalformedCase(info *types.Info, st *ast.TypeSwitchStmt) bool {
	for _, cl := range st.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if isMalformedPtr(info.TypeOf(e)) {
				return true
			}
		}
	}
	return false
}

// has400Literal reports a string literal mentioning 400 anywhere in n.
func has400Literal(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.Contains(lit.Value, "400") {
			found = true
		}
		return true
	})
	return found
}
