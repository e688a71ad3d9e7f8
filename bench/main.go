// Command bench is the repository's benchmark: a closed-loop load
// generator in this process against the front end and the back-end fleet
// in child processes of their own, five workloads, end-to-end metrics
// measured with tracing off and per-layer metrics from a traced run.
// README.md in this directory says what each number means.
//
//	bench                          every workload, both runs, a table
//	bench -workload W -trace 0     one workload's end-to-end metrics
//	bench -workload W -trace 1     one workload's per-layer metrics
//	bench -runs 3 -out a.json      repeat, keep every run
//	bench -compare a.json b.json   judge b against a by the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	if os.Getenv(childEnv) != "" {
		if err := childMain(); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := parentMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func parentMain() error {
	var (
		workloadName = flag.String("workload", "", "run only this workload and print one JSON result line (default: all, as a table)")
		seed         = flag.Int64("seed", 1, "seed of the catalog and the request order")
		seconds      = flag.Float64("seconds", 16, "measured time per run")
		traceMode    = flag.Int("trace", 0, "with -workload, 0: end-to-end metrics, tracing off; 1: per-layer metrics, traced")
		runs         = flag.Int("runs", 1, "repeat the whole set this many times")
		out          = flag.String("out", "", "write every run's metrics to this JSON file")
		traceOut     = flag.String("trace-out", "", "write the traced runs' spans to this file, one JSON object per line")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 if the second is worse")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || *runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive")
	}
	opt := defaultOptions(*seed, *seconds)

	if *workloadName != "" {
		// The driver's form: one workload, one run, the result object as
		// the last line.
		w, ok := findWorkload(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		if *traceMode != 0 && *traceMode != 1 {
			return fmt.Errorf("-workload needs -trace 0 or -trace 1")
		}
		run := runEndToEnd
		if *traceMode == 1 {
			run = runPerLayer
		}
		r, err := run(w, opt)
		if err != nil {
			return err
		}
		if err := writeSpans(*traceOut, r.spans); err != nil {
			return err
		}
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !r.Correct {
			return fmt.Errorf("%d of %d requests failed", r.Failed, r.Attempted)
		}
		return nil
	}

	rep := report{Header: header{
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Clients:   clientCount(),
		Network:   "loopback (127.0.0.1); no real link was crossed",
		Seconds:   *seconds,
		Seed:      *seed,
	}}
	printHeader(rep.Header)
	var spans []span
	failed := 0
	for i := 0; i < *runs; i++ {
		for _, w := range workloads {
			wr := workloadRun{Run: i + 1, Workload: w.Name, Metrics: map[string]float64{}}
			for _, run := range []func(workload, options) (*result, error){runEndToEnd, runPerLayer} {
				r, err := run(w, opt)
				if err != nil {
					return err
				}
				wr.Attempted += r.Attempted
				wr.Failed += r.Failed
				for name, m := range r.Metrics {
					wr.Metrics[name] = m.Value
				}
				if *traceOut != "" {
					spans = append(spans, r.spans...)
				}
			}
			failed += wr.Failed
			printRun(wr)
			rep.Runs = append(rep.Runs, wr)
		}
	}
	if err := writeSpans(*traceOut, spans); err != nil {
		return err
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d requests failed", failed)
	}
	return nil
}
