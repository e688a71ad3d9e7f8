package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// The golden decision test pins every registry name's behaviour to
// constants captured on the commit before the strategies were folded
// into three Select skeletons (a334e88): a seeded trace is replayed
// against a scripted, partly closed-loop load table with failure,
// membership and profile events interleaved, and the digest of the
// returned node sequence plus the diagnostic counters must not move.
//
// That commit had no by-cause split for wlard and lard/r and no
// assignment count for lard/r; those six rows' idle, panicked and
// assigns were recorded from the skeletons, held to idle + panicked =
// moves and, on the uniform fleet, to lard's captured split.

// goldenFleet is one of the three cluster shapes each name is run on.
type goldenFleet struct {
	name     string
	profiles []Profile // initial per-node profiles, nil = uniform
	capacity int       // Params.MappingCapacity
	retune   bool      // replay the SetProfile events
}

var goldenFleets = []goldenFleet{
	// No profile ever changes: the fleet on which wlard must equal lard.
	{name: "uniform"},
	{name: "hetero", retune: true, profiles: []Profile{
		{TLow: 13, THigh: 33, Weight: 0.5}, {TLow: 13, THigh: 33, Weight: 0.5},
		{TLow: 13, THigh: 33, Weight: 0.5}, {TLow: 13, THigh: 33, Weight: 0.5},
		{TLow: 50, THigh: 130, Weight: 2}, {TLow: 50, THigh: 130, Weight: 2},
	}},
	{name: "bounded", retune: true, capacity: 24},
}

var goldenStrategies = []struct {
	name  string
	build func(LoadReader, Params) Strategy
}{
	{"wrr", func(l LoadReader, _ Params) Strategy { return NewWRR(l) }},
	{"lb", func(l LoadReader, _ Params) Strategy { return NewLB(l) }},
	{"lb/gc", func(l LoadReader, _ Params) Strategy { return NewLBGC(l, 256<<10) }},
	{"lard", func(l LoadReader, p Params) Strategy { return NewLARD(l, p) }},
	{"lard/r", func(l LoadReader, p Params) Strategy { return NewLARDR(l, p) }},
	{"wlard", func(l LoadReader, p Params) Strategy { return NewWLARD(l, p) }},
}

// goldenCounters are the diagnostics a strategy exposes, zero where the
// strategy has none. moves counts imbalance-triggered reassignments: a
// changed node for lard/wlard, an added replica for lard/r.
type goldenCounters struct {
	moves, idle, panicked, assigns, shrinks uint64
	maxRepl, mapped                         int
}

func readGoldenCounters(s Strategy) goldenCounters {
	var c goldenCounters
	if v, ok := s.(*Mapped); ok {
		c.moves, c.assigns, c.shrinks = v.Moves(), v.Assignments(), v.Shrinks()
		c.idle, c.panicked = v.MovesByCause()
		c.maxRepl, c.mapped = v.MaxReplication(), v.MappedTargets()
	}
	return c
}

// goldenRun replays the scripted trace and returns the FNV-1a digest of
// the node sequence and the final counters.
func goldenRun(build func(LoadReader, Params) Strategy, fleet goldenFleet) (uint64, goldenCounters) {
	const (
		steps   = 9000
		targets = 160
		tick    = 10 * time.Millisecond // K = 20 s is 2000 steps
	)
	params := DefaultParams()
	params.MappingCapacity = fleet.capacity
	loads := &fakeLoads{loads: make([]int, 6)}
	s := build(loads, params)
	for i, p := range fleet.profiles {
		s.SetProfile(i, p)
	}

	rng := rand.New(rand.NewSource(7))
	digest := fnv.New64a()
	// Each admitted request holds its slot for a node-dependent number of
	// steps, so the load table follows the strategy's own decisions.
	type slot struct{ node, until int }
	var open []slot
	surge := func(node, delta int) {
		if node < len(loads.loads) {
			loads.loads[node] += delta
		}
	}
	for step := 0; step < steps; step++ {
		switch step {
		case 600:
			s.NodeDown(1)
		case 1100:
			s.NodeUp(1)
		case 1500:
			s.SetDraining(2, true)
		case 2100:
			s.SetDraining(2, false)
		case 2600:
			loads.loads = append(loads.loads, 0)
			if got := s.AddNode(); got != len(loads.loads)-1 {
				panic(fmt.Sprintf("AddNode = %d", got))
			}
		case 3300:
			if fleet.retune {
				s.SetProfile(3, Profile{TLow: 50, THigh: 130, Weight: 2})
			}
		case 4000:
			s.RemoveNode(0)
		case 4700:
			if fleet.retune {
				s.SetProfile(5, Profile{TLow: 8, THigh: 20, Weight: 0.25})
			}
		case 5600:
			s.NodeDown(4)
			s.SetDraining(6, true)
		case 6000:
			s.NodeUp(4)
			s.SetDraining(6, false)
		// Scripted surges: load the strategy did not place, pushing one
		// node past T_high and past 2·T_high while others idle.
		case 800, 3000, 5000, 7000:
			surge(step/1000%5+1, 70)
		case 1000, 3200, 5200, 7200:
			surge((step-200)/1000%5+1, -70)
		case 1800, 6400:
			surge(5, 140)
		case 1900, 6500:
			surge(5, -140)
		}
		kept := open[:0]
		for _, o := range open {
			if o.until <= step {
				loads.loads[o.node]--
			} else {
				kept = append(kept, o)
			}
		}
		open = kept

		// A skewed target popularity: a few hot targets, a long tail.
		t := int(rng.ExpFloat64()*12) % targets
		if rng.Intn(4) == 0 {
			t = rng.Intn(targets)
		}
		r := Request{Target: fmt.Sprintf("/t%03d", t), Size: int64(1+t%48) << 10}
		n := s.Select(time.Duration(step)*tick, r)
		digest.Write([]byte{byte(n + 1)})
		if n >= 0 {
			loads.loads[n]++
			hold := 120 + 40*(n%3) + rng.Intn(60)
			if t < 3 {
				hold *= 2 // hot targets are also the slow ones
			}
			open = append(open, slot{n, step + hold})
		}
	}
	return digest.Sum64(), readGoldenCounters(s)
}

type goldenRow struct {
	digest uint64
	goldenCounters
}

// golden holds the constants captured on the parent commit, keyed
// "strategy@fleet".
var golden = map[string]goldenRow{
	"wrr@uniform":    {0xc173bc8b48d80cee, goldenCounters{0, 0, 0, 0, 0, 0, 0}},
	"lb@uniform":     {0xb93ffe0931568509, goldenCounters{0, 0, 0, 0, 0, 0, 0}},
	"lb/gc@uniform":  {0xe2bdd353e4433fa6, goldenCounters{0, 0, 0, 0, 0, 0, 0}},
	"lard@uniform":   {0x67841f28869436ff, goldenCounters{57, 42, 15, 271, 0, 0, 160}},
	"lard/r@uniform": {0x5fffc24cedb8c13, goldenCounters{33, 29, 4, 282, 31, 2, 160}},
	"wlard@uniform":  {0x67841f28869436ff, goldenCounters{57, 42, 15, 271, 0, 0, 160}},
	"wrr@hetero":     {0x3e000a1c25838e9a, goldenCounters{0, 0, 0, 0, 0, 0, 0}},
	"lb@hetero":      {0xb93ffe0931568509, goldenCounters{0, 0, 0, 0, 0, 0, 0}},
	"lb/gc@hetero":   {0xe2bdd353e4433fa6, goldenCounters{0, 0, 0, 0, 0, 0, 0}},
	"lard@hetero":    {0x4370badbab360c4c, goldenCounters{621, 615, 6, 262, 0, 0, 160}},
	"lard/r@hetero":  {0xb5307cf0201b6d63, goldenCounters{645, 638, 7, 215, 165, 7, 160}},
	"wlard@hetero":   {0x81d107c8ae69b98e, goldenCounters{96, 83, 13, 224, 0, 0, 160}},
	"wrr@bounded":    {0x1aca90bfe4f33e9e, goldenCounters{0, 0, 0, 0, 0, 0, 0}},
	"lb@bounded":     {0xb93ffe0931568509, goldenCounters{0, 0, 0, 0, 0, 0, 0}},
	"lb/gc@bounded":  {0xe2bdd353e4433fa6, goldenCounters{0, 0, 0, 0, 0, 0, 0}},
	"lard@bounded":   {0xcfafcacd814e3c08, goldenCounters{142, 126, 16, 4534, 0, 0, 24}},
	"lard/r@bounded": {0x6d5ed431a8ebbf0d, goldenCounters{213, 184, 29, 4535, 0, 5, 24}},
	"wlard@bounded":  {0x1de1e64c4dbef57a, goldenCounters{2, 0, 2, 4535, 0, 0, 24}},
}

func TestGoldenDecisions(t *testing.T) {
	for _, fleet := range goldenFleets {
		for _, st := range goldenStrategies {
			key := st.name + "@" + fleet.name
			digest, c := goldenRun(st.build, fleet)
			got := goldenRow{digest, c}
			want, ok := golden[key]
			if !ok {
				t.Errorf("%q: {%#x, goldenCounters{%d, %d, %d, %d, %d, %d, %d}},",
					key, digest, c.moves, c.idle, c.panicked, c.assigns, c.shrinks, c.maxRepl, c.mapped)
				continue
			}
			if got != want {
				t.Errorf("%s: got %+v, want %+v", key, got, want)
			}
			if c.idle+c.panicked != c.moves {
				t.Errorf("%s: %d idle + %d panicked moves, %d in all", key, c.idle, c.panicked, c.moves)
			}
		}
	}
	// On a fleet of unit weights and fleet-wide thresholds the relative
	// load measure is the raw one: wlard is lard, decision for decision.
	if golden["wlard@uniform"] != golden["lard@uniform"] {
		t.Error("wlard@uniform and lard@uniform rows differ")
	}
}
