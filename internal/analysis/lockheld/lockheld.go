// Package lockheld machine-checks the dispatcher's mutex convention.
//
// The convention, stated in pkg/lard's comments but until now enforced
// only by -race and review, has three parts:
//
//  1. A function whose name ends in "Locked" is a helper that runs
//     inside someone else's critical section: it may only be called
//     while a mutex field of its receiver is held — between Lock() and
//     Unlock() in the same function, under a defer Unlock(), or from
//     another *Locked function on the same receiver.
//  2. A struct that declares a field `mu sync.Mutex` (or RWMutex) and
//     has at least one *Locked method opts into the guarded-fields
//     convention: every field declared after mu is protected, and any
//     direct access to those fields outside a critical section (or
//     outside a *Locked method of the same receiver) is flagged.
//     Fields declared above mu are deliberately unguarded
//     (immutable-after-construction configuration), matching how
//     lockedShard, Session, and membership are laid out.
//  3. Lock() must pair with an Unlock() on every path: returning with
//     the mutex held, double-locking, and unlocking an unheld mutex
//     are all flagged.
//
// Function literals are analyzed as their own functions with no lock
// held — a closure built inside a critical section runs later, outside
// it (exactly the bug class of lockedShard.claimLocked's release
// closure, which must re-take the lock itself).
//
// Freshly allocated locals (x := &T{...}, var x T, x := new(T)) are
// exempt: a constructor initializes fields before the value is shared,
// so no lock can or need be held.
//
// Escape hatch: //lard:allow lockheld on (or above) the flagged line.
package lockheld

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lard/internal/analysis"
	"lard/internal/analysis/flow"
)

// Analyzer is the lockheld pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockheld",
	Doc:  "check that *Locked helpers and mu-guarded struct fields are only reached with the mutex held, and that every Lock pairs with an Unlock on all paths",
	Run:  run,
}

// Path states for one mutex key.
const (
	unheld    uint8 = iota
	excl            // Lock() taken, no deferred unlock yet
	exclDefer       // Lock() taken, Unlock() deferred
	rdheld          // RLock() taken
	rdDefer         // RLock() taken, RUnlock() deferred
	caller          // held by the caller (*Locked method's own receiver)
	deferOnly       // defer Unlock() seen before any Lock (runtime-legal)
)

func held(s uint8) bool { return s != unheld && s != deferOnly }

type checker struct {
	pass    *analysis.Pass
	guarded map[*types.Named]map[string]bool // struct type → protected fields
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:    pass,
		guarded: guardedStructs(pass),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd.Body, recvObject(pass, fd), strings.HasSuffix(fd.Name.Name, "Locked"))
			// Every function literal is its own function: a closure runs
			// outside the critical section it was built in.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					c.checkFunc(fl.Body, nil, false)
				}
				return true
			})
		}
	}
	return nil
}

// guardedStructs finds package-local struct types with a mutex field
// named mu and at least one *Locked method, mapping them to their
// protected (declared-after-mu) field names.
func guardedStructs(pass *analysis.Pass) map[*types.Named]map[string]bool {
	hasLockedMethod := make(map[*types.Named]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			if obj := recvObject(pass, fd); obj != nil {
				if named := namedOf(obj.Type()); named != nil {
					hasLockedMethod[named] = true
				}
			}
		}
	}
	guarded := make(map[*types.Named]map[string]bool)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || !hasLockedMethod[named] {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		muIndex := -1
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "mu" && isMutexType(f.Type()) {
				muIndex = i
				break
			}
		}
		if muIndex < 0 {
			continue
		}
		protected := make(map[string]bool)
		for i := muIndex + 1; i < st.NumFields(); i++ {
			if !isMutexType(st.Field(i).Type()) {
				protected[st.Field(i).Name()] = true
			}
		}
		guarded[named] = protected
	}
	return guarded
}

// lockOp is one mutex operation found in the function body.
type lockOp struct {
	key     string // canonical mutex path ("<obj>.mu")
	display string
	method  string // Lock, Unlock, RLock, RUnlock
}

// query is one node that requires a held mutex.
type query struct {
	node    ast.Node
	pos     token.Pos
	keys    map[string]bool // acceptable mutex keys; nil = any key in the function
	display string          // what is being accessed, for the message
	lockstr string          // the lock that should be held, for the message
}

type heldRecord struct {
	visited   bool
	sawUnheld bool
}

// checkFunc analyzes one function body. recvObj is the receiver object
// for methods (nil otherwise); isLocked reports a *Locked name.
func (c *checker) checkFunc(body *ast.BlockStmt, recvObj types.Object, isLocked bool) {
	info := c.pass.TypesInfo

	// Pass 1: collect mutex ops and held-requirement queries.
	ops := make(map[*ast.CallExpr]lockOp)
	keyDisplay := make(map[string]string)
	recvKeys := make(map[string]bool) // keys rooted at the method receiver
	var queries []*query
	fresh := freshLocals(info, body)

	flow.InspectSkipLits(body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.CallExpr:
			if op, ok := c.mutexOp(x); ok {
				ops[x] = op
				keyDisplay[op.key] = op.display
				if recvObj != nil && rootObject(info, x) == recvObj {
					recvKeys[op.key] = true
				}
				return
			}
			if q := c.lockedCallQuery(x, recvObj, isLocked, fresh); q != nil {
				queries = append(queries, q)
			}
		case *ast.SelectorExpr:
			if q := c.fieldAccessQuery(x, recvObj, isLocked, fresh); q != nil {
				queries = append(queries, q)
			}
		}
	})

	keys := make([]string, 0, len(keyDisplay))
	for k := range keyDisplay {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		keys = append(keys, "") // dummy key so queries are still visited
	}

	// Pass 2: per mutex key, interpret the body and record heldness at
	// every query node.
	acc := make(map[string]map[ast.Node]*heldRecord)
	for _, key := range keys {
		key := key
		records := make(map[ast.Node]*heldRecord)
		acc[key] = records
		hasLock := keyHasLock(ops, key)
		initial := unheld
		if isLocked && recvObj != nil && recvKeys[key] {
			// A *Locked method runs inside its caller's critical section
			// on the receiver's mutex.
			initial = caller
		}
		interp := &flow.Interp[uint8]{
			Transfer: func(s uint8, n ast.Node) uint8 {
				deferred := false
				if d, ok := n.(*ast.DeferStmt); ok {
					deferred = true
					n = d.Call
				}
				flow.InspectSkipLits(n, func(inner ast.Node) {
					switch x := inner.(type) {
					case *ast.CallExpr:
						if op, ok := ops[x]; ok && op.key == key {
							s = c.applyOp(s, op, deferred, hasLock, x.Pos())
						}
					}
					for _, q := range queries {
						if q.node == inner {
							rec := records[q.node]
							if rec == nil {
								rec = &heldRecord{}
								records[q.node] = rec
							}
							rec.visited = true
							if !held(s) {
								rec.sawUnheld = true
							}
						}
					}
				})
				return s
			},
			AtExit: func(s uint8, n ast.Node) {
				if s == excl || s == rdheld {
					c.pass.Reportf(n.Pos(), "returns with %s still locked (no unlock on this path)", keyDisplay[key])
				}
			},
		}
		interp.Run(body, initial)
	}

	// Pass 3: a query is satisfied if some acceptable key was held on
	// every path reaching it.
	for _, q := range queries {
		ok := false
		for _, key := range keys {
			if key == "" {
				continue
			}
			if q.keys != nil && !q.keys[key] {
				continue
			}
			if rec := acc[key][q.node]; rec != nil && rec.visited && !rec.sawUnheld {
				ok = true
				break
			}
		}
		// Unreachable code is never visited; stay silent there.
		visited := false
		for _, key := range keys {
			if rec := acc[key][q.node]; rec != nil && rec.visited {
				visited = true
				break
			}
		}
		if visited && !ok {
			c.pass.Reportf(q.pos, "%s without holding %s", q.display, q.lockstr)
		}
	}
}

// applyOp folds one mutex operation into the path state, reporting
// misuse.
func (c *checker) applyOp(s uint8, op lockOp, deferred bool, hasLock bool, pos token.Pos) uint8 {
	switch op.method {
	case "Lock":
		if held(s) {
			c.pass.Reportf(pos, "%s.Lock on a path where it may already be held (self-deadlock)", op.display)
			return s
		}
		if s == deferOnly {
			return exclDefer
		}
		return excl
	case "RLock":
		if s == excl || s == exclDefer || s == caller {
			c.pass.Reportf(pos, "%s.RLock on a path where it may already be exclusively held", op.display)
			return s
		}
		if s == deferOnly {
			return rdDefer
		}
		return rdheld
	case "Unlock", "RUnlock":
		if deferred {
			switch s {
			case excl:
				return exclDefer
			case rdheld:
				return rdDefer
			case unheld:
				return deferOnly
			case exclDefer, rdDefer:
				c.pass.Reportf(pos, "second deferred unlock of %s on this path", op.display)
				return s
			}
			return s
		}
		switch s {
		case excl, rdheld:
			return unheld
		case exclDefer, rdDefer:
			c.pass.Reportf(pos, "%s unlocked while a deferred unlock is pending (double unlock)", op.display)
			return unheld
		case caller:
			c.pass.Reportf(pos, "%s.%s inside a *Locked function: the caller owns this critical section", op.display, op.method)
			return s
		default:
			if hasLock {
				c.pass.Reportf(pos, "%s.%s without holding it on this path", op.display, op.method)
			}
			return s
		}
	}
	return s
}

// mutexOp recognizes <path>.mu.Lock() and friends where the receiver is
// a sync.Mutex / sync.RWMutex reachable through a canonical selector
// path.
func (c *checker) mutexOp(call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockOp{}, false
	}
	if !isMutexType(c.pass.TypesInfo.TypeOf(sel.X)) {
		return lockOp{}, false
	}
	key, display, ok := canonPath(c.pass.TypesInfo, sel.X)
	if !ok {
		return lockOp{}, false
	}
	return lockOp{key: key, display: display, method: sel.Sel.Name}, true
}

// lockedCallQuery builds the held-requirement for a call to a *Locked
// function or method.
func (c *checker) lockedCallQuery(call *ast.CallExpr, recvObj types.Object, isLocked bool, fresh map[types.Object]bool) *query {
	info := c.pass.TypesInfo
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if !strings.HasSuffix(fun.Sel.Name, "Locked") {
			return nil
		}
		selInfo := info.Selections[fun]
		if selInfo == nil || selInfo.Kind() != types.MethodVal {
			return nil // package-qualified call or field-of-func; not a method
		}
		base := fun.X
		baseKey, baseDisplay, ok := canonPath(info, base)
		if !ok {
			return nil
		}
		root := rootObjectOfExpr(info, base)
		if fresh[root] {
			return nil
		}
		if isLocked && (recvObj == nil || root == recvObj) {
			// *Locked calling *Locked on the same receiver, or a
			// receiver-less *Locked helper whose caller owns the lock.
			return nil
		}
		// Acceptable: any mutex-typed field of the receiver's struct.
		keys := make(map[string]bool)
		lockNames := []string{}
		if st := structOf(info.TypeOf(base)); st != nil {
			for i := 0; i < st.NumFields(); i++ {
				if isMutexType(st.Field(i).Type()) {
					keys[baseKey+"."+st.Field(i).Name()] = true
					lockNames = append(lockNames, baseDisplay+"."+st.Field(i).Name())
				}
			}
		}
		if len(keys) == 0 {
			return nil // no mutex on the receiver: nothing to check against
		}
		return &query{
			node:    call.Fun,
			pos:     call.Pos(),
			keys:    keys,
			display: fmt.Sprintf("%s.%s is called", baseDisplay, fun.Sel.Name),
			lockstr: strings.Join(lockNames, " or "),
		}
	case *ast.Ident:
		if !strings.HasSuffix(fun.Name, "Locked") {
			return nil
		}
		if _, isFunc := info.Uses[fun].(*types.Func); !isFunc {
			return nil
		}
		if isLocked {
			return nil
		}
		return &query{
			node:    call.Fun,
			pos:     call.Pos(),
			keys:    nil, // any lock held in this function will do
			display: fmt.Sprintf("%s is called", fun.Name),
			lockstr: "a mutex",
		}
	}
	return nil
}

// fieldAccessQuery builds the held-requirement for a direct access to a
// protected field of a guarded struct.
func (c *checker) fieldAccessQuery(sel *ast.SelectorExpr, recvObj types.Object, isLocked bool, fresh map[types.Object]bool) *query {
	info := c.pass.TypesInfo
	selInfo := info.Selections[sel]
	if selInfo == nil || selInfo.Kind() != types.FieldVal {
		return nil
	}
	named := namedOf(info.TypeOf(sel.X))
	if named == nil {
		return nil
	}
	protected, ok := c.guarded[named]
	if !ok || !protected[sel.Sel.Name] {
		return nil
	}
	baseKey, baseDisplay, canonOK := canonPath(info, sel.X)
	if !canonOK {
		return nil
	}
	root := rootObjectOfExpr(info, sel.X)
	if fresh[root] {
		return nil
	}
	if isLocked && (recvObj == nil || root == recvObj) {
		return nil
	}
	return &query{
		node:    sel,
		pos:     sel.Pos(),
		keys:    map[string]bool{baseKey + ".mu": true},
		display: fmt.Sprintf("%s.%s (guarded field of %s) is accessed", baseDisplay, sel.Sel.Name, named.Obj().Name()),
		lockstr: baseDisplay + ".mu",
	}
}

// --- helpers ---

func keyHasLock(ops map[*ast.CallExpr]lockOp, key string) bool {
	for _, op := range ops {
		if op.key == key && (op.method == "Lock" || op.method == "RLock") {
			return true
		}
	}
	return false
}

// canonPath renders a selector chain rooted at an identifier as a
// canonical key (object-identity based) and a display string.
func canonPath(info *types.Info, e ast.Expr) (key, display string, ok bool) {
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(x)
		if obj == nil {
			return "", "", false
		}
		return fmt.Sprintf("%p", obj), x.Name, true
	case *ast.SelectorExpr:
		k, d, ok := canonPath(info, x.X)
		if !ok {
			return "", "", false
		}
		return k + "." + x.Sel.Name, d + "." + x.Sel.Name, true
	case *ast.ParenExpr:
		return canonPath(info, x.X)
	}
	return "", "", false
}

// rootObjectOfExpr returns the object of the identifier at the root of a
// selector chain.
func rootObjectOfExpr(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// rootObject returns the root object of a mutex op call's receiver
// chain (sh.mu.Lock() → sh's object).
func rootObject(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return rootObjectOfExpr(info, sel.X)
}

// freshLocals finds local variables bound to freshly allocated values
// (x := &T{...}, x := T{...}, x := new(T), var x T): their fields are
// init-time state no lock protects yet.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	flow.InspectSkipLits(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok != token.DEFINE || len(st.Lhs) != len(st.Rhs) {
				return
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if isFreshAlloc(st.Rhs[i]) {
					if obj := info.Defs[id]; obj != nil {
						fresh[obj] = true
					}
				}
			}
		case *ast.DeclStmt:
			gd, ok := st.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue // zero-valued var declarations only
				}
				for _, id := range vs.Names {
					if obj := info.Defs[id]; obj != nil {
						fresh[obj] = true
					}
				}
			}
		}
	})
	return fresh
}

func isFreshAlloc(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := x.X.(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func structOf(t types.Type) *types.Struct {
	named := namedOf(t)
	if named == nil {
		return nil
	}
	st, _ := named.Underlying().(*types.Struct)
	return st
}

func recvObject(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}
