package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// benchLoads simulates a balanced 8-node cluster.
type benchLoads struct{ loads [8]int }

func (l *benchLoads) NodeCount() int { return len(l.loads) }
func (l *benchLoads) Load(i int) int { return l.loads[i] }

// benchDispatch measures a strategy's per-request dispatch cost — the
// paper notes the dispatcher "amounts to only a small fraction of the
// handoff overhead" (≈10 µs of 300 µs on its hardware).
func benchDispatch(b *testing.B, s Strategy) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	targets := make([]string, 4096)
	for i := range targets {
		targets[i] = fmt.Sprintf("/doc%04d.html", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Select(time.Duration(i)*time.Millisecond, Request{Target: targets[rng.Intn(len(targets))]})
	}
}

// benchStrategies builds every registry name over a balanced 8-node
// cluster.
var benchStrategies = []struct {
	name  string
	build func() Strategy
}{
	{"wrr", func() Strategy { return NewWRR(&benchLoads{}) }},
	{"lb", func() Strategy { return NewLB(&benchLoads{}) }},
	{"lb/gc", func() Strategy { return NewLBGC(&benchLoads{}, 32<<20) }},
	{"lard", func() Strategy { return NewLARD(&benchLoads{}, DefaultParams()) }},
	{"lard/r", func() Strategy { return NewLARDR(&benchLoads{}, DefaultParams()) }},
	{"wlard", func() Strategy { return NewWLARD(&benchLoads{}, DefaultParams()) }},
}

func BenchmarkSelect(b *testing.B) {
	for _, st := range benchStrategies {
		b.Run(st.name, func(b *testing.B) { benchDispatch(b, st.build()) })
	}
}

// Once every target is placed, no strategy allocates to pick a node.
func TestSelectDoesNotAllocate(t *testing.T) {
	targets := make([]string, 64)
	for i := range targets {
		targets[i] = fmt.Sprintf("/doc%04d.html", i)
	}
	for _, st := range benchStrategies {
		s := st.build()
		for _, target := range targets {
			s.Select(0, Request{Target: target, Size: 8 << 10})
		}
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			s.Select(time.Duration(i), Request{Target: targets[i%len(targets)], Size: 8 << 10})
			i++
		}); allocs != 0 {
			t.Errorf("%s: %v allocs per Select", st.name, allocs)
		}
	}
}
