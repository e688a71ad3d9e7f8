// The obligation engine: the one path checker behind the donecall and
// poolpair analyzers. A Table names the calls that hand their caller
// something to give back exactly once (a done func, a pooled reader, a
// dialed conn) and how it is given back; Table.Run interprets every
// path through every function of a package, one acquire site at a time,
// and reports:
//
//   - the acquire's result discarded (bare call statement, or
//     assigned to _);
//   - a path that reaches an exit with the obligation live (leaked);
//   - a path that releases twice;
//   - a release on a path where the acquire's ok was false or its err
//     non-nil (nothing was acquired);
//   - the variable overwritten while the obligation is live.
//
// A call is not automatically an escape: the bottom-up summaries of
// summary.go say whether a package-local callee always releases its
// parameter (the caller's obligation is discharged), only reads it (the
// obligation stays), or stores it (adopted; tracking stops). Ownership
// transfer at birth is structural: an acquire nested in a composite
// literal, a return or a call argument is never tracked, and a value
// captured by a closure is the closure's.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"lard/internal/analysis"
)

// Acquire is one row of a Table: a call whose result carries an
// obligation. Pkg is an import-path suffix and Recv a receiver type
// name; an empty Pkg, Recv or Name matches any. When the call's last
// result is a bool or an error it gates the acquisition, the comma-ok
// and comma-err idioms: nothing is held where ok is false or err is
// non-nil.
type Acquire struct {
	Pkg, Recv, Name string
	What            string // noun for diagnostics, e.g. "pooled reader"
	Release         string // how it is released, for diagnostics
}

// Release is a call that discharges the obligation of one operand:
// argument Arg, or the receiver when Arg is -1.
type Release struct {
	Pkg, Recv, Name string
	Arg             int
}

// Borrow is a callee outside the analyzed package known to read its
// arguments without retaining or releasing them. A callee that matches
// an Acquire or Release row never borrows.
type Borrow struct{ Pkg, Recv, Name string }

// Wording is one analyzer's diagnostic texts. Placeholders: {what} and
// {release} from the Acquire row, {call} the acquire call as written
// and {callee} its bare name, {var} the tracked variable, {line} the
// acquire's line, {how} " (assigned to _)" or nothing.
type Wording struct {
	Discarded   string // the result is dropped on the floor
	Overwritten string // assigned over while live
	Double      string // released on a path that already released
	Never       string // released on a path that acquired nothing
	Leaked      string // an exit reached while live
}

// Table is what one obligation analyzer checks.
type Table struct {
	Acquires []Acquire
	Releases []Release
	Borrows  []Borrow

	// ByCall: the obligation is the acquire's first func() result and
	// calling that value releases it. Otherwise the obligation is the
	// first result and a call matching Releases releases it.
	ByCall bool

	// Rebinds: `var d func(); d = acquire()` is tracked like
	// `d := acquire()`. Off, only a variable the acquire statement
	// itself defines is tracked: an assignment to an outer variable (a
	// closure writing through its capture) is owned elsewhere.
	Rebinds bool

	Words Wording
}

// Callee names functions as a table row does: Pkg an import-path suffix,
// Recv a receiver type name, and an empty field matches any.
type Callee struct{ Pkg, Recv, Name string }

// Matches reports whether fn is a function c names.
func (c Callee) Matches(fn *types.Func) bool { return matches(fn, c.Pkg, c.Recv, c.Name) }

// Callees is every function the table's rows name: its acquires, releases
// and borrows, in that order.
func (t *Table) Callees() []Callee {
	var out []Callee
	for _, r := range t.Acquires {
		out = append(out, Callee{r.Pkg, r.Recv, r.Name})
	}
	for _, r := range t.Releases {
		out = append(out, Callee{r.Pkg, r.Recv, r.Name})
	}
	for _, r := range t.Borrows {
		out = append(out, Callee(r))
	}
	return out
}

// Run is the analyzer body: it checks every function and function
// literal of the package against the table.
func (t *Table) Run(pass *analysis.Pass) error {
	e := newEngine(pass.Files, pass.TypesInfo, t)
	e.pass = pass
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					e.checkFunc(fn.Body)
				}
			case *ast.FuncLit:
				e.checkFunc(fn.Body)
			}
			return true
		})
	}
	return nil
}

// engine holds one package's table, types and summaries.
type engine struct {
	t     *Table
	info  *types.Info
	pass  *analysis.Pass // nil when only summarizing
	decls map[*types.Func]*ast.FuncDecl
	sums  map[*types.Func]*Summary
}

// acquired is one acquire call, resolved against the table.
type acquired struct {
	what, release, callee string
	results               []int // result indices that carry an obligation
	gate                  int   // the gating bool or error result, -1 if none
}

// acquireAt matches call against the table's Acquire rows, then against
// package-local wrappers whose summary says a result always carries a
// fresh obligation.
func (e *engine) acquireAt(call *ast.CallExpr) *acquired {
	fn := CalleeFunc(e.info, call)
	if fn == nil {
		return nil
	}
	a := &acquired{callee: fn.Name(), gate: -1}
	res := fn.Type().(*types.Signature).Results()
	for _, row := range e.t.Acquires {
		if !matches(fn, row.Pkg, row.Recv, row.Name) {
			continue
		}
		first := 0
		for e.t.ByCall && first < res.Len() && !isNiladicFunc(res.At(first).Type()) {
			first++
		}
		if first >= res.Len() {
			return nil
		}
		if last := res.Len() - 1; last > first && isBoolOrError(res.At(last).Type()) {
			a.gate = last
		}
		a.what, a.release, a.results = row.What, row.Release, []int{first}
		return a
	}
	if sum := e.sums[fn]; sum != nil {
		// RetAlways means acquired on every return path, so no gate
		// applies: the caller must always release.
		for j, r := range sum.Results {
			if r == RetAlways {
				a.results = append(a.results, j)
			}
		}
		a.what, a.release = "resource acquired via "+fn.Name(), "its paired release func"
	}
	if len(a.results) == 0 {
		return nil
	}
	return a
}

// words binds the Wording placeholders for one acquire site.
func (e *engine) words(a *acquired, call *ast.CallExpr, name, how string) *strings.Replacer {
	return strings.NewReplacer("{what}", a.what, "{release}", a.release,
		"{call}", types.ExprString(call.Fun), "{callee}", a.callee, "{var}", name, "{how}", how,
		"{line}", strconv.Itoa(e.pass.Fset.Position(call.Pos()).Line))
}

// Path states of one obligation.
const (
	none      uint8 = iota // before the defining assignment
	undecided              // acquired; the gate not yet examined
	live                   // held; must be released exactly once
	nilv                   // nothing acquired (ok false / err non-nil)
	released               // released once
	escaped                // ownership transferred; stop tracking
)

// obligation is one tracked acquire site.
type obligation struct {
	define *ast.AssignStmt
	obj    types.Object
	gate   types.Object // the ok or err variable, nil if none
	start  uint8
	words  *strings.Replacer
}

func (e *engine) checkFunc(body *ast.BlockStmt) {
	for _, ob := range e.collect(body) {
		e.interpret(body, ob)
	}
}

// collect finds the acquire sites in one function body, reporting the
// immediately wrong shapes (discarded results) and returning the
// obligations worth path-tracking.
func (e *engine) collect(body *ast.BlockStmt) []*obligation {
	var obs []*obligation
	discarded := func(a *acquired, call *ast.CallExpr, how string) {
		e.pass.Reportf(call.Pos(), "%s", e.words(a, call, "", how).Replace(e.t.Words.Discarded))
	}
	InspectSkipLits(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if a := e.acquireAt(call); a != nil {
					discarded(a, call, "")
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
			a := e.acquireAt(call)
			if a == nil {
				return
			}
			var gate types.Object
			if a.gate >= 0 && a.gate < len(st.Lhs) {
				if id, ok := st.Lhs[a.gate].(*ast.Ident); ok && id.Name != "_" {
					gate = e.info.ObjectOf(id)
				}
			}
			for _, ri := range a.results {
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
					discarded(a, call, " (assigned to _)")
					continue
				}
				obj := e.info.Defs[id]
				if obj == nil && e.t.Rebinds {
					obj = e.info.Uses[id]
				}
				if obj == nil || capturedByFuncLit(e.info, body, obj) {
					// Owned elsewhere, or the closure's, which runs at
					// an unknown time.
					continue
				}
				ob := &obligation{define: st, obj: obj, gate: gate, start: live,
					words: e.words(a, call, id.Name, "")}
				if gate != nil {
					ob.start = undecided
				}
				obs = append(obs, ob)
			}
		}
	})
	return obs
}

// interpret runs the path analysis for one obligation.
func (e *engine) interpret(body *ast.BlockStmt, ob *obligation) {
	w := &e.t.Words
	say := func(pos token.Pos, format string) {
		e.pass.Reportf(pos, "%s", ob.words.Replace(format))
	}
	interp := &Interp[uint8]{
		Transfer: func(s uint8, n ast.Node) uint8 {
			if n == ob.define {
				if s == live || s == undecided {
					say(n.Pos(), w.Overwritten)
				}
				return ob.start
			}
			if s == none || s == escaped {
				return s
			}
			e.uses(n, ob.obj, func(eff Effect, pos token.Pos) {
				switch {
				case s == escaped:
				case eff == EffReleasesAlways:
					switch s {
					case live, undecided:
						s = released
					case released:
						say(pos, w.Double)
					case nilv:
						say(pos, w.Never)
					}
				default:
					// Rebound, adopted, or half-released by a callee:
					// nothing is provable either way from here.
					if eff == effRebound && (s == live || s == undecided) {
						say(pos, w.Overwritten)
					}
					s = escaped
				}
			})
			return s
		},
		Refine: func(s uint8, cond ast.Expr, taken bool) (uint8, bool) {
			if s != undecided && s != live && s != nilv {
				return s, true
			}
			holds, known := ob.heldIf(e.info, cond)
			switch {
			case !known:
				return s, true
			case s == undecided && holds == taken:
				return live, true
			case s == undecided:
				return nilv, true
			}
			return s, (s == live) == (holds == taken)
		},
		AtExit: func(s uint8, n ast.Node) {
			if s == live || s == undecided {
				say(n.Pos(), w.Leaked)
			}
		},
	}
	interp.Run(body, none)
}

// heldIf reports what cond being true says about the obligation: held
// (`x != nil`, `err == nil`, `ok`), not held (`x == nil`, `err != nil`,
// `!ok`), or nothing (known false).
func (ob *obligation) heldIf(info *types.Info, cond ast.Expr) (held, known bool) {
	if obj, isNeq, ok := NilCompare(info, cond); ok {
		switch obj {
		case ob.obj:
			return isNeq, true
		case ob.gate:
			return !isNeq, true
		}
		return false, false
	}
	e, negated := ast.Unparen(cond), false
	if not, ok := e.(*ast.UnaryExpr); ok && not.Op == token.NOT {
		e, negated = ast.Unparen(not.X), true
	}
	if id, ok := e.(*ast.Ident); ok && ob.gate != nil && info.ObjectOf(id) == ob.gate {
		return !negated, true
	}
	return false, false
}

// effRebound is what uses reports for an assignment over the variable
// that holds the obligation. No summary carries it.
const effRebound = EffAdopts + 1

// uses reports, in source order, everything leaf node n does with the
// obligation held in obj, borrows apart. It is the one reading of a
// statement that the path checker and the summaries share.
func (e *engine) uses(n ast.Node, obj types.Object, visit func(Effect, token.Pos)) {
	if d, ok := n.(*ast.DeferStmt); ok {
		// A deferred release runs at exit; treating it at its lexical
		// position is the same one-release-per-path fact.
		n = d.Call
	}
	if g, ok := n.(*ast.GoStmt); ok {
		// The spawned call runs at an unknown time: any involvement of
		// the obligation is out of this function's hands.
		if usesObject(e.info, g.Call, obj) {
			visit(EffAdopts, g.Pos())
		}
		return
	}
	accounted := accountedObligationIdents(e.info, n, obj)
	InspectSkipLits(n, func(inner ast.Node) {
		switch x := inner.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if IsObject(e.info, lhs, obj) {
					visit(effRebound, x.Pos())
				}
			}
		case *ast.CallExpr:
			if IsObject(e.info, x.Fun, obj) {
				// Calling the value: the release under ByCall, code the
				// analysis cannot see otherwise.
				if e.t.ByCall {
					visit(EffReleasesAlways, x.Pos())
				} else {
					visit(EffAdopts, x.Pos())
				}
			} else if eff := e.classifyCall(x, obj); eff != EffNone {
				visit(eff, x.Pos())
			}
		case *ast.Ident:
			if e.info.ObjectOf(x) == obj && !accounted[x] {
				// Returned, stored, address taken, passed inside a
				// composite: ownership moves.
				visit(EffAdopts, x.Pos())
			}
		}
	})
}

// classifyCall reports the effect call has on the obligation held in
// obj, which appears directly as the receiver or as arguments (deeper
// appearances, inside a composite literal or an address-of, are for
// uses' ident rule). The table's Release and Borrow rows decide first,
// package-local summaries second; an unknown callee adopts, and a
// method called on the resource itself borrows unless a Release row
// names it.
func (e *engine) classifyCall(call *ast.CallExpr, obj types.Object) Effect {
	var positions []int
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && IsObject(e.info, sel.X, obj) {
		positions = append(positions, -1)
	}
	for i, a := range call.Args {
		if IsObject(e.info, a, obj) {
			positions = append(positions, i)
		}
	}
	fn := CalleeFunc(e.info, call)
	eff := EffNone
	for _, pos := range positions {
		var at Effect
		switch {
		case fn != nil && e.releases(fn, pos):
			at = EffReleasesAlways
		case pos == -1 || fn != nil && e.borrows(fn):
			at = EffNone
		default:
			at = e.calleeParamEffect(call, fn, pos)
		}
		eff = max(eff, at)
	}
	return eff
}

func (e *engine) releases(fn *types.Func, pos int) bool {
	for _, r := range e.t.Releases {
		if r.Arg == pos && matches(fn, r.Pkg, r.Recv, r.Name) {
			return true
		}
	}
	return false
}

func (e *engine) borrows(fn *types.Func) bool {
	for _, r := range e.t.Releases {
		if matches(fn, r.Pkg, r.Recv, r.Name) {
			return false
		}
	}
	for _, a := range e.t.Acquires {
		if matches(fn, a.Pkg, a.Recv, a.Name) {
			return false
		}
	}
	for _, b := range e.t.Borrows {
		if matches(fn, b.Pkg, b.Recv, b.Name) {
			return true
		}
	}
	return false
}

// calleeParamEffect looks up the summarized effect of call's callee on
// its argIdx-th parameter, conservatively EffAdopts for unknown
// callees, unfinished summaries (cycles), variadic tails, and method
// expressions (whose argument indices are shifted by the receiver).
func (e *engine) calleeParamEffect(call *ast.CallExpr, fn *types.Func, argIdx int) Effect {
	sum := e.sums[fn]
	if sum == nil {
		return EffAdopts
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if _, isType := e.info.Uses[id].(*types.TypeName); isType {
					return EffAdopts // method expression: indices shifted
				}
			}
		}
	}
	if sig.Variadic() && argIdx >= sig.Params().Len()-1 {
		return EffAdopts
	}
	if argIdx >= len(sum.Params) {
		return EffAdopts
	}
	return sum.Params[argIdx]
}
