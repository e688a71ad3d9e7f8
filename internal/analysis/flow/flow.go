// Package flow runs a structured abstract interpretation over one Go
// function body. It is the control-flow engine behind the lockheld
// analyzer and the obligation engine (obligation.go) that donecall and
// poolpair are tables for: instead of building an explicit CFG (the
// stdlib has no go/cfg), it walks the AST's structure — if/else, for,
// range, switch, select, labeled break/continue — propagating small
// caller-defined path states and merging them as sets, which keeps
// disjunctive facts ("the mutex is held on this path but not that one")
// exact without inventing a lattice join.
//
// The interpreter is deliberately modest:
//
//   - States must be comparable and small; sets are deduplicated maps.
//   - Loops run to a fixpoint by accumulating entry states, capped at
//     maxLoopIterations; analyses terminate because their state spaces
//     are finite.
//   - goto aborts the function's analysis (reports already made stand;
//     unexplored paths are skipped). The repository does not use goto.
//   - Function literals are NOT entered: a closure body executes at some
//     other time, so it must be analyzed as its own function by the
//     caller. Transfer receives leaf nodes whole and must skip nested
//     *ast.FuncLit subtrees itself.
package flow

import "go/ast"

const (
	maxLoopIterations = 64
	maxStates         = 256
)

// Interp interprets one function body for one analysis client.
type Interp[S comparable] struct {
	// Transfer folds one leaf node (a simple statement, or an expression
	// such as an if condition) into a path state. It is where the client
	// observes calls, assignments, and accesses, and may report
	// diagnostics as a side effect.
	Transfer func(s S, n ast.Node) S

	// Refine splits a path state on a branch condition: it returns the
	// state refined under cond being taken (true arm) or not (false
	// arm), and whether that arm is feasible. A nil Refine leaves states
	// unchanged and both arms feasible.
	Refine func(s S, cond ast.Expr, taken bool) (S, bool)

	// AtExit is invoked once per path state that reaches a return
	// statement (n is the *ast.ReturnStmt) or falls off the end of the
	// body (n is the *ast.BlockStmt body itself).
	AtExit func(s S, n ast.Node)
}

type set[S comparable] map[S]struct{}

func (ss set[S]) add(s S) bool {
	if _, ok := ss[s]; ok {
		return false
	}
	if len(ss) >= maxStates {
		return false
	}
	ss[s] = struct{}{}
	return true
}

func (ss set[S]) union(other set[S]) bool {
	grew := false
	for s := range other {
		if ss.add(s) {
			grew = true
		}
	}
	return grew
}

func (ss set[S]) clone() set[S] {
	out := make(set[S], len(ss))
	for s := range ss {
		out[s] = struct{}{}
	}
	return out
}

// run is the per-function interpreter state.
type run[S comparable] struct {
	in      *Interp[S]
	aborted bool

	// breaks and continues collect states escaping to a labeled (or
	// innermost, label "") loop/switch/select. Stacked by frames.
	frames []*frame[S]
}

type frame[S comparable] struct {
	labels    []string // "" plus any explicit labels on the statement
	isLoop    bool     // continue targets only loops
	breaks    set[S]
	continues set[S]
	fallth    set[S]
}

// Run interprets body starting from the single initial state. It returns
// false if the analysis was aborted (goto); diagnostics reported before
// the abort stand.
func (in *Interp[S]) Run(body *ast.BlockStmt, initial S) bool {
	r := &run[S]{in: in}
	states := set[S]{}
	states.add(initial)
	out := r.execStmt(body, states, nil)
	for s := range out {
		if in.AtExit != nil {
			in.AtExit(s, body)
		}
	}
	return !r.aborted
}

func (r *run[S]) transfer(states set[S], n ast.Node) set[S] {
	if n == nil || r.in.Transfer == nil {
		return states
	}
	out := set[S]{}
	for s := range states {
		out.add(r.in.Transfer(s, n))
	}
	return out
}

func (r *run[S]) refine(states set[S], cond ast.Expr, taken bool) set[S] {
	out := set[S]{}
	for s := range states {
		if r.in.Refine == nil {
			out.add(s)
			continue
		}
		rs, feasible := r.in.Refine(s, cond, taken)
		if feasible {
			out.add(rs)
		}
	}
	return out
}

// findFrame locates the break/continue target for a label.
func (r *run[S]) findFrame(label string, needLoop bool) *frame[S] {
	for i := len(r.frames) - 1; i >= 0; i-- {
		f := r.frames[i]
		if needLoop && !f.isLoop {
			continue
		}
		for _, l := range f.labels {
			if l == label {
				return f
			}
		}
	}
	return nil
}

// execStmt interprets one statement from the given input states and
// returns the states that flow past it. labels carries any label names
// attached directly to this statement (for labeled loops).
func (r *run[S]) execStmt(stmt ast.Stmt, states set[S], labels []string) set[S] {
	if r.aborted || len(states) == 0 {
		return states
	}
	switch st := stmt.(type) {
	case *ast.BlockStmt:
		for _, s := range st.List {
			states = r.execStmt(s, states, nil)
			if r.aborted {
				return set[S]{}
			}
		}
		return states

	case *ast.LabeledStmt:
		return r.execStmt(st.Stmt, states, append(labels, st.Label.Name))

	case *ast.ReturnStmt:
		states = r.transfer(states, st)
		for s := range states {
			if r.in.AtExit != nil {
				r.in.AtExit(s, st)
			}
		}
		return set[S]{}

	case *ast.BranchStmt:
		switch st.Tok.String() {
		case "break":
			if f := r.findFrame(labelOf(st), false); f != nil {
				f.breaks.union(states)
			}
			return set[S]{}
		case "continue":
			if f := r.findFrame(labelOf(st), true); f != nil {
				f.continues.union(states)
			}
			return set[S]{}
		case "fallthrough":
			if len(r.frames) > 0 {
				r.frames[len(r.frames)-1].fallth.union(states)
			}
			return set[S]{}
		default: // goto
			r.aborted = true
			return set[S]{}
		}

	case *ast.IfStmt:
		if st.Init != nil {
			states = r.execStmt(st.Init, states, nil)
		}
		states = r.transfer(states, st.Cond)
		thenIn := r.refine(states, st.Cond, true)
		elseIn := r.refine(states, st.Cond, false)
		out := r.execStmt(st.Body, thenIn, nil)
		if st.Else != nil {
			out = out.clone()
			out.union(r.execStmt(st.Else, elseIn, nil))
		} else {
			out = out.clone()
			out.union(elseIn)
		}
		return out

	case *ast.ForStmt:
		if st.Init != nil {
			states = r.execStmt(st.Init, states, nil)
		}
		f := &frame[S]{labels: append([]string{""}, labels...), isLoop: true,
			breaks: set[S]{}, continues: set[S]{}, fallth: set[S]{}}
		r.frames = append(r.frames, f)
		exit := set[S]{}
		entry := states.clone()
		for i := 0; i < maxLoopIterations; i++ {
			condStates := entry.clone()
			if st.Cond != nil {
				condStates = r.transfer(condStates, st.Cond)
				exit.union(r.refine(condStates, st.Cond, false))
				condStates = r.refine(condStates, st.Cond, true)
			}
			bodyOut := r.execStmt(st.Body, condStates, nil)
			if r.aborted {
				break
			}
			next := bodyOut.clone()
			next.union(f.continues)
			f.continues = set[S]{}
			if st.Post != nil {
				next = r.execStmt(st.Post, next, nil)
			}
			if !entry.union(next) {
				break
			}
		}
		// With no condition (for{}) only break reaches exit.
		r.frames = r.frames[:len(r.frames)-1]
		exit.union(f.breaks)
		return exit

	case *ast.RangeStmt:
		states = r.transfer(states, st.X)
		if st.Key != nil {
			states = r.transfer(states, st.Key)
		}
		if st.Value != nil {
			states = r.transfer(states, st.Value)
		}
		f := &frame[S]{labels: append([]string{""}, labels...), isLoop: true,
			breaks: set[S]{}, continues: set[S]{}, fallth: set[S]{}}
		r.frames = append(r.frames, f)
		exit := states.clone() // zero iterations
		entry := states.clone()
		for i := 0; i < maxLoopIterations; i++ {
			bodyOut := r.execStmt(st.Body, entry.clone(), nil)
			if r.aborted {
				break
			}
			next := bodyOut.clone()
			next.union(f.continues)
			f.continues = set[S]{}
			exit.union(next) // loop may end after any iteration
			if !entry.union(next) {
				break
			}
		}
		r.frames = r.frames[:len(r.frames)-1]
		exit.union(f.breaks)
		return exit

	case *ast.SwitchStmt:
		if st.Init != nil {
			states = r.execStmt(st.Init, states, nil)
		}
		if st.Tag != nil {
			states = r.transfer(states, st.Tag)
		}
		return r.execCases(st.Body, states, labels)

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			states = r.execStmt(st.Init, states, nil)
		}
		states = r.transfer(states, st.Assign)
		return r.execCases(st.Body, states, labels)

	case *ast.SelectStmt:
		f := &frame[S]{labels: append([]string{""}, labels...),
			breaks: set[S]{}, continues: set[S]{}, fallth: set[S]{}}
		r.frames = append(r.frames, f)
		out := set[S]{}
		any := false
		for _, cl := range st.Body.List {
			comm := cl.(*ast.CommClause)
			any = true
			in := states.clone()
			if comm.Comm != nil {
				in = r.execStmt(comm.Comm, in, nil)
			}
			for _, s := range comm.Body {
				in = r.execStmt(s, in, nil)
				if r.aborted {
					break
				}
			}
			out.union(in)
		}
		r.frames = r.frames[:len(r.frames)-1]
		out.union(f.breaks)
		if !any {
			return set[S]{} // select{} blocks forever
		}
		return out

	default:
		// Leaf statements: assignments, expression statements, defers,
		// go statements, declarations, sends, inc/dec, empty.
		states = r.transfer(states, stmt)
		if terminates(stmt) {
			return set[S]{}
		}
		return states
	}
}

// execCases interprets a switch body: each clause starts from the
// switch-entry states (plus any fallthrough states from the previous
// clause); a missing default lets entry states flow past the switch.
func (r *run[S]) execCases(body *ast.BlockStmt, states set[S], labels []string) set[S] {
	f := &frame[S]{labels: append([]string{""}, labels...),
		breaks: set[S]{}, continues: set[S]{}, fallth: set[S]{}}
	r.frames = append(r.frames, f)
	out := set[S]{}
	hasDefault := false
	carry := set[S]{} // fallthrough from the previous clause
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		in := states.clone()
		in.union(carry)
		f.fallth = set[S]{}
		for _, s := range cc.Body {
			in = r.execStmt(s, in, nil)
			if r.aborted {
				break
			}
		}
		out.union(in)
		carry = f.fallth
	}
	r.frames = r.frames[:len(r.frames)-1]
	out.union(f.breaks)
	if !hasDefault {
		out.union(states)
	}
	return out
}

func labelOf(st *ast.BranchStmt) string {
	if st.Label != nil {
		return st.Label.Name
	}
	return ""
}
