package flow

import "go/ast"

// terminatingNames are callee names that never return. Name-based on
// purpose: at statement position, a call spelled panic / os.Exit /
// log.Fatalf / t.FailNow that does return would be a worse bug than a
// missed diagnostic.
var terminatingNames = map[string]bool{
	"panic":   true,
	"Exit":    true,
	"Fatal":   true,
	"Fatalf":  true,
	"Fatalln": true,
	"Goexit":  true,
	"FailNow": true,
	"SkipNow": true,
}

// terminates reports whether stmt is a call statement that never
// returns: the path ends there without reaching AtExit.
func terminates(stmt ast.Stmt) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return terminatingNames[fun.Name]
	case *ast.SelectorExpr:
		return terminatingNames[fun.Sel.Name]
	}
	return false
}
