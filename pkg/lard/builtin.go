package lard

import (
	"lard/internal/core"
)

// The concrete built-in strategy types, aliased so Inspect callbacks can
// type-assert for diagnostics (move counters, server sets, spills)
// without importing the internal policy package. Seven registry names
// configure four types; see each name below.
type (
	// Balanced is the least-relative-load pick: wrr.
	Balanced = core.Balanced
	// Hashed is d hashed candidates per target: lb (d = 1, load-blind)
	// and pod (d = 2, less loaded wins).
	Hashed = core.Hashed
	// Mapped is the target→server-set table with the paper's imbalance
	// test: lard, lard/r and wlard.
	Mapped = core.Mapped
	// LBGC is LB with the idealized front-end global-cache model: lb/gc.
	LBGC = core.LBGC
)

// The paper's five strategies (wrr, lb, lb/gc, lard, lard/r) and the two
// capacity-aware ones (pod, wlard) register themselves under the names
// used in its figures, plus the slash-free aliases the CLIs accept.
func init() {
	wrr := func(l core.LoadReader, _ Options) (core.Strategy, error) {
		return core.NewWRR(l), nil
	}
	lb := func(l core.LoadReader, _ Options) (core.Strategy, error) {
		return core.NewLB(l), nil
	}
	lbgc := func(l core.LoadReader, o Options) (core.Strategy, error) {
		return core.NewLBGC(l, o.CacheBytes), nil
	}
	lardS := func(l core.LoadReader, o Options) (core.Strategy, error) {
		return core.NewLARD(l, o.Params), nil
	}
	lardr := func(l core.LoadReader, o Options) (core.Strategy, error) {
		return core.NewLARDR(l, o.Params), nil
	}
	pod := func(l core.LoadReader, o Options) (core.Strategy, error) {
		return core.NewPOD(l, o.Params), nil
	}
	wlard := func(l core.LoadReader, o Options) (core.Strategy, error) {
		return core.NewWLARD(l, o.Params), nil
	}

	Register("wrr", wrr)
	Register("lb", lb)
	Register("lb/gc", lbgc)
	RegisterAlias("lbgc", "lb/gc")
	Register("lard", lardS)
	Register("lard/r", lardr)
	RegisterAlias("lardr", "lard/r")
	Register("pod", pod)
	Register("wlard", wlard)
}
