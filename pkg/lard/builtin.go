package lard

import (
	"fmt"
	"sort"
	"strings"

	"lard/internal/core"
)

// The concrete built-in strategy types, aliased so Inspect callbacks can
// type-assert for diagnostics (move counters, server sets) without
// importing the internal policy package. Six names configure four types;
// see each name below.
type (
	// Balanced is the least-relative-load pick: wrr.
	Balanced = core.Balanced
	// Hashed is one hashed node per target, load-blind: lb.
	Hashed = core.Hashed
	// Mapped is the target→server-set table with the paper's imbalance
	// test: lard, lard/r and wlard.
	Mapped = core.Mapped
	// LBGC is LB with the idealized front-end global-cache model: lb/gc.
	LBGC = core.LBGC
)

// builtins is the closed set of strategies New builds, by name: the
// paper's five (wrr, lb, lb/gc, lard, lard/r) under the names used in its
// figures, and the capacity-aware wlard. The dispatcher
// calls a constructor once per shard; loads reports only the connections
// that shard has claimed.
var builtins = map[string]func(loads core.LoadReader, o options) core.Strategy{
	"wrr":    func(l core.LoadReader, _ options) core.Strategy { return core.NewWRR(l) },
	"lb":     func(l core.LoadReader, _ options) core.Strategy { return core.NewLB(l) },
	"lb/gc":  func(l core.LoadReader, o options) core.Strategy { return core.NewLBGC(l, o.CacheBytes) },
	"lard":   func(l core.LoadReader, o options) core.Strategy { return core.NewLARD(l, o.Params) },
	"lard/r": func(l core.LoadReader, o options) core.Strategy { return core.NewLARDR(l, o.Params) },
	"wlard":  func(l core.LoadReader, o options) core.Strategy { return core.NewWLARD(l, o.Params) },
}

// aliases are the slash-free spellings the CLIs accept; a dispatcher
// built through one reports the canonical name.
var aliases = map[string]string{"lardr": "lard/r", "lbgc": "lb/gc"}

// Strategies returns the canonical strategy names, sorted. Aliases are
// omitted.
func Strategies() []string {
	out := make([]string, 0, len(builtins))
	for name := range builtins {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup resolves a (possibly aliased, any-case) name to its constructor
// and canonical name.
func lookup(name string) (func(core.LoadReader, options) core.Strategy, string, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if target, ok := aliases[key]; ok {
		key = target
	}
	build, ok := builtins[key]
	if !ok {
		return nil, "", fmt.Errorf("lard: unknown strategy %q (known: %s)",
			name, strings.Join(Strategies(), ", "))
	}
	return build, key, nil
}
