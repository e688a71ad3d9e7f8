package main

import (
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []workload `json:"workloads"`
	EndToEnd   []metric   `json:"end_to_end"`
	PerLayer   []metric   `json:"per_layer"`
}

// TestBenchmarkFileMatchesSpec keeps BENCHMARK.json and spec.go one list:
// same workloads with the same reasons, same metrics with the same units,
// directions and bounds, every name well formed and used once.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}

	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !wellFormed.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . - only", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if got := f.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		name(m.Name)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %+v\n spec.go        %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %+v\n spec.go        %+v", f.PerLayer, perLayer)
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestWorkloadsInProcess runs every workload, both ways, with the nodes
// in this process and windows of a fraction of a second: every request
// verifies, every metric is measured, and the front end's books balance
// afterwards.
func TestWorkloadsInProcess(t *testing.T) {
	opt := options{
		seed: 1, seconds: 0.2,
		cold: 100, warm: 50 * time.Millisecond, slice: 25 * time.Millisecond,
		ceiling: 50 * time.Millisecond, stages: 150 * time.Millisecond,
		start: startLocal,
	}
	for _, w := range workloads {
		for _, run := range []struct {
			name string
			f    func(workload, options) (*result, error)
			defs []metric
		}{{"end_to_end", runEndToEnd, endToEnd}, {"per_layer", runPerLayer, perLayer}} {
			t.Run(w.Name+"/"+run.name, func(t *testing.T) {
				r, err := run.f(w, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < opt.cold {
					t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(run.defs) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(run.defs))
				}
				fe := r.final.FE
				if r.final.InFlight != 0 {
					t.Errorf("InFlight = %d after the clients left", r.final.InFlight)
				}
				if fe.PoolHits+fe.PoolMisses != fe.Handoffs {
					t.Errorf("pool hits %d + misses %d != %d checkouts", fe.PoolHits, fe.PoolMisses, fe.Handoffs)
				}
				if fe.Errors != 0 || fe.Rejected != 0 {
					t.Errorf("front end counted %d errors, %d rejected", fe.Errors, fe.Rejected)
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4)
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	higher := metric{Name: "goodput_vs_plain", Better: "higher", Bound: 0.10}
	lower := metric{Name: "latency_p50_vs_plain", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		m    metric
		a, b []float64
		want string
	}{
		{higher, []float64{100, 101, 99}, []float64{95, 96, 94}, "ok"},
		{higher, []float64{100, 101, 99}, []float64{85, 86, 84}, "worse"},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "ok"},
		{lower, []float64{100, 101, 99}, []float64{115, 116, 114}, "worse"},
		{lower, []float64{100, 101, 99}, []float64{85, 86, 84}, "ok"},
		{lower, []float64{100, 120, 90}, []float64{100, 101, 99}, "unresolved"},
		// A spread wider than the bound is unresolved whatever the medians say.
		{lower, []float64{100, 120, 90}, []float64{150, 151, 149}, "unresolved"},
		{higher, []float64{100, 101, 99}, []float64{50, 80, 40}, "unresolved"},
		// A median of 0 leaves nothing to take a share of.
		{higher, []float64{0, 0, 0}, []float64{1, 1, 1}, "unresolved"},
		{lower, []float64{1, 1, 1}, []float64{0, 0, 0}, "unresolved"},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestCompareFiles checks the verdicts that decide -compare's exit code:
// equal reports pass, a risen fail_share is worse, and a report that
// lacks a metric is an error, not a silent pass.
func TestCompareFiles(t *testing.T) {
	full := report{}
	for _, w := range workloads {
		run := workloadRun{Run: 1, Workload: w.Name, Attempted: 1000, Metrics: map[string]float64{}}
		for _, m := range endToEnd {
			run.Metrics[m.Name] = 1
		}
		full.Runs = append(full.Runs, run)
	}
	write := func(name string, edit func(*workloadRun)) string {
		r := report{}
		for _, run := range full.Runs {
			run.Metrics = maps.Clone(run.Metrics)
			edit(&run)
			r.Runs = append(r.Runs, run)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := write("same.json", func(*workloadRun) {})
	failing := write("failing.json", func(r *workloadRun) { r.Failed = 2 })
	lacking := write("lacking.json", func(r *workloadRun) { delete(r.Metrics, endToEnd[0].Name) })

	if err := compareFiles(same, same); err != nil {
		t.Errorf("equal reports: %v", err)
	}
	if err := compareFiles(same, failing); !errors.Is(err, errWorse) {
		t.Errorf("fail_share 0.002 against 0: got %v, want errWorse", err)
	}
	if err := compareFiles(same, lacking); err == nil || errors.Is(err, errWorse) {
		t.Errorf("report lacking a metric: got %v, want an error of its own", err)
	}
}
