// Package donecall proves the done-func contract of the dispatch layer.
//
// Every dispatch-layer call — Dispatch, dispatch, Redispatch, claimNode,
// claimFallback, claimLocked, attachBackend — returns a done func()
// that releases the claimed slot on a backend node. The contract is
// exactly-once: a path that never calls done leaks the slot (the node's
// reported load stays high forever and the LARD policy routes around a
// phantom connection); a path that calls it twice drives the load
// negative and the policy floods the node. In the style of the vet
// lostcancel check, the analyzer follows every path through a function;
// it is a table for the obligation engine (flow.Table), in which the
// acquire is any of those calls, the release is calling the value, and
// the accompanying error gates it (the dispatch layer returns a nil
// done alongside an error). `if err != nil` / `if done == nil` refine a
// path; `return done`, storing it in a struct and capture by a closure
// hand the obligation on.
//
// Escape hatch: //lard:allow donecall on (or above) the flagged line.
package donecall

import (
	"lard/internal/analysis"
	"lard/internal/analysis/flow"
)

// Analyzer is the donecall pass.
var Analyzer = &analysis.Analyzer{
	Name: "donecall",
	Doc:  "check that the done func returned by dispatch-layer calls is called exactly once on every path",
	Run:  Table.Run,
}

// Table is the analyzer's rows; lardlint's tests hold each to a live
// function with call sites in the tree.
var Table = &flow.Table{
	Acquires: []flow.Acquire{
		{Name: "Dispatch"},
		{Name: "dispatch"},
		{Name: "Redispatch"},
		{Name: "claimNode"},
		{Name: "claimFallback"},
		{Name: "claimLocked"},
		{Name: "attachBackend"},
	},
	ByCall:  true,
	Rebinds: true,
	Words: flow.Wording{
		Discarded:   "{callee} returns a done func that is discarded{how}: it must be called exactly once",
		Overwritten: "done func from {callee} (line {line}) is overwritten before being called: the claimed slot leaks",
		Double:      "done func from {callee} (line {line}) may already have been called on this path",
		Never:       "done func from {callee} (line {line}) is called on a path where it is nil (err != nil)",
		Leaked:      "done func from {callee} (line {line}) is not called on this path: the node's claimed slot leaks",
	},
}
