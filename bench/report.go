package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// header records where a report's numbers come from.
type header struct {
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Clients   int     `json:"clients"`
	Network   string  `json:"network"`
	Seconds   float64 `json:"seconds"`
	Seed      int64   `json:"seed"`
}

// workloadRun is one workload's metrics, end-to-end and per-layer, from
// one pass over the set.
type workloadRun struct {
	Run       int                `json:"run"`
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// generatorBound reports a workload that ran at more than half of what
// the generator reaches against a server that costs nothing: its goodput
// then says as much about the generator as about the cluster.
func (r workloadRun) generatorBound() bool {
	return r.Metrics["loadgen.goodput_rps"] > r.Metrics["loadgen.ceiling_rps"]/2
}

// report is what -out writes and -compare reads.
type report struct {
	Header header        `json:"header"`
	Runs   []workloadRun `json:"runs"`
}

func printHeader(h header) {
	fmt.Printf("bench: nproc=%d %s clients=%d seconds=%g seed=%d\n", h.NProc, h.GoVersion, h.Clients, h.Seconds, h.Seed)
	fmt.Printf("bench: traffic: %s\n", h.Network)
}

func printRun(r workloadRun) {
	fmt.Printf("\n== %s (run %d): attempted=%d failed=%d fail_share=%g generator_bound=%v\n",
		r.Workload, r.Run, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)), r.generatorBound())
	for _, m := range endToEnd {
		fmt.Printf("  %-36s %14.4f %-6s %-6s is better, bound %g\n", m.Name, r.Metrics[m.Name], m.Unit, m.Better, m.Bound)
	}
	for _, m := range perLayer {
		fmt.Printf("  %-36s %14.4f %-6s %-6s is better\n", m.Name, r.Metrics[m.Name], m.Unit, m.Better)
	}
}

// writeSpans writes the spans kept in memory during the run, one JSON
// object per line. An empty path writes nothing.
func writeSpans(path string, spans []span) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// values collects one metric of one workload over a report's runs.
func (r report) values(workload, name string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload == workload {
			if v, ok := run.Metrics[name]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

var errWorse = errors.New("the second report is worse than the first")

// failShareBound is how much fail_share may rise, as an absolute share of
// the requests attempted, before it counts as worse.
const failShareBound = 0.001

// failShare is failed over attempted requests of one workload, over all
// of a report's runs; ok is false if the report has no such run.
func (r report) failShare(workload string) (share float64, ok bool) {
	var failed, attempted int
	for _, run := range r.Runs {
		if run.Workload == workload {
			failed += run.Failed
			attempted += run.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted)), attempted > 0
}

// compareFiles judges report b against report a, for every workload and
// end-to-end metric (see judge), and for fail_share, which is worse if it
// rose by more than failShareBound. A workload or metric that either
// report lacks is an error: the two were not made by the same benchmark.
func compareFiles(pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	worse, missing := false, 0
	fmt.Printf("%-18s %-22s %34s %34s %6s  %s\n", "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				missing++
				fmt.Printf("%-18s %-22s %34s %34s %6g  %s\n", w.Name, m.Name, "", "", m.Bound, "missing")
				continue
			}
			verdict := judge(m, va, vb)
			worse = worse || verdict == "worse"
			fmt.Printf("%-18s %-22s %34s %34s %6g  %s\n", w.Name, m.Name, quartileString(va), quartileString(vb), m.Bound, verdict)
		}
		fa, okA := a.failShare(w.Name)
		fb, okB := b.failShare(w.Name)
		if !okA || !okB {
			continue // counted above, once per metric
		}
		verdict := "ok"
		if fb-fa > failShareBound {
			verdict, worse = "worse", true
		}
		fmt.Printf("%-18s %-22s %34.4g %34.4g %6g  %s\n", w.Name, "fail_share", fa, fb, failShareBound, verdict)
	}
	if missing > 0 {
		return fmt.Errorf("%d pairs of workload and metric are missing from one of the reports", missing)
	}
	if worse {
		return errWorse
	}
	return nil
}

func quartileString(v []float64) string {
	q1, med, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

// judge compares one metric's values from two reports: unresolved if
// either side's own spread (quartile distance over median) is wider than
// the bound or a median is 0, which leaves nothing to take a share of;
// else worse if b's median is worse than a's by more than the bound;
// else ok.
func judge(m metric, a, b []float64) string {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	if am == 0 || bm == 0 || (a3-a1)/am > m.Bound || (b3-b1)/bm > m.Bound {
		return "unresolved"
	}
	change := (bm - am) / am
	if m.Better == "higher" {
		change = -change
	}
	if change > m.Bound {
		return "worse"
	}
	return "ok"
}
