package experiments

import "testing"

// The tentpole shape: on the 4-small+2-big fleet at pinned overload,
// profile-aware placement (wlard) beats uniform-threshold LARD on
// goodput by a wide margin while raw throughput stays flat, and the
// thresholds-only variant lands in between. Holds at tiny scale.
func TestHeteroShape(t *testing.T) {
	tables, err := Hetero(Options{Seed: 42, Scale: 0.05, Nodes: []int{6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Hetero returned %d tables, want 3", len(tables))
	}
	goodput, tput, mix := tables[0], tables[1], tables[2]
	if goodput.ID != "hetero" || tput.ID != "hetero-tput" || mix.ID != "hetero-mix" {
		t.Fatalf("table IDs = %q, %q, %q", goodput.ID, tput.ID, mix.ID)
	}

	for _, label := range []string{"lard-uni", "lard-prof", "lardr-prof", "wlard"} {
		s, ok := goodput.Get(label)
		if !ok {
			t.Fatalf("goodput table missing series %q", label)
		}
		if len(s.X) != 3 {
			t.Fatalf("series %q has %d points, want 3 alphas", label, len(s.X))
		}
	}

	// The acceptance margin: ≥20% at full scale, ≥10% even at this tiny
	// scale, at every skew.
	uni, _ := goodput.Get("lard-uni")
	wlard, _ := goodput.Get("wlard")
	prof, _ := goodput.Get("lard-prof")
	for i, alpha := range uni.X {
		if wlard.Y[i] < 1.10*uni.Y[i] {
			t.Errorf("alpha %.1f: wlard goodput %.0f not ≥10%% over lard-uni %.0f",
				alpha, wlard.Y[i], uni.Y[i])
		}
		if prof.Y[i] <= uni.Y[i] {
			t.Errorf("alpha %.1f: lard-prof goodput %.0f not above lard-uni %.0f",
				alpha, prof.Y[i], uni.Y[i])
		}
	}

	// Raw throughput stays flat: the collapse is a goodput effect, not a
	// capacity one.
	tuni, _ := tput.Get("lard-uni")
	twlard, _ := tput.Get("wlard")
	for i := range tuni.X {
		if r := twlard.Y[i] / tuni.Y[i]; r < 0.9 || r > 1.1 {
			t.Errorf("throughput diverges at alpha %.1f: wlard/uni = %.2f", tuni.X[i], r)
		}
	}

	// The mix sweep: scaled thresholds win at every small-node count.
	muni, _ := mix.Get("lard-uni")
	mprof, _ := mix.Get("lard-prof")
	if len(muni.X) != 4 {
		t.Fatalf("mix sweep has %d points, want 4", len(muni.X))
	}
	for i, small := range muni.X {
		if mprof.Y[i] <= muni.Y[i] {
			t.Errorf("%v small nodes: lard-prof goodput %.0f not above lard-uni %.0f",
				small, mprof.Y[i], muni.Y[i])
		}
	}
}
