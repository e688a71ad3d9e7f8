package lard

// The benchmark harness: one benchmark per table/figure in the paper's
// evaluation (Sections 4 and 6), plus the Section 6.2 front-end
// microbenchmarks. Each figure benchmark replays the corresponding
// experiment at a reduced trace scale and reports the headline metrics
// via testing.B metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in miniature. Paper-length runs:
//
//	go run ./cmd/lardsim -experiment all -scale 1.0
//
// Wall-clock ns/op numbers measure the *reproduction's* speed; the
// figures' simulated requests/sec are reported as custom metrics.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"

	"lard/internal/backend"
	"lard/internal/cluster"
	"lard/internal/experiments"
	"lard/internal/frontend"
	"lard/internal/handoff"
	"lard/internal/loadgen"
	"lard/internal/trace"
	publard "lard/pkg/lard"
)

// benchOpt is the reduced-scale configuration used by the figure
// benchmarks: 2% of the paper's request counts over the full catalogs.
func benchOpt() experiments.Options {
	return experiments.Options{Seed: 42, Scale: 0.02, Nodes: []int{1, 4, 8}}
}

// reportSeries exposes series values at the largest swept cluster size as
// benchmark metrics.
func reportSeries(b *testing.B, t *experiments.Table, unit string, labels ...string) {
	b.Helper()
	for _, label := range labels {
		s, ok := t.Get(label)
		if !ok || len(s.Y) == 0 {
			b.Fatalf("series %q missing from %s", label, t.ID)
		}
		b.ReportMetric(s.Y[len(s.Y)-1], sanitizeMetric(label)+"_"+unit)
	}
}

func sanitizeMetric(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func runExperiment(b *testing.B, run func(experiments.Options) ([]*experiments.Table, error)) []*experiments.Table {
	b.Helper()
	var tables []*experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = run(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
	}
	return tables
}

func BenchmarkFigure5_RiceCDF(b *testing.B) {
	tables := runExperiment(b, experiments.Figure5)
	cov, _ := tables[1].Get("MB needed")
	if v, ok := cov.Value(0.97); ok {
		b.ReportMetric(v, "MB_for_97pct")
	}
}

func BenchmarkFigure6_IBMCDF(b *testing.B) {
	tables := runExperiment(b, experiments.Figure6)
	cov, _ := tables[1].Get("MB needed")
	if v, ok := cov.Value(0.97); ok {
		b.ReportMetric(v, "MB_for_97pct")
	}
}

func BenchmarkFigure7_ThroughputRice(b *testing.B) {
	tables := runExperiment(b, experiments.RiceSweep)
	reportSeries(b, tables[0], "reqps", "WRR", "LARD", "LARD/R")
	wrr, _ := tables[0].Get("WRR")
	lardr, _ := tables[0].Get("LARD/R")
	b.ReportMetric(lardr.Y[len(lardr.Y)-1]/wrr.Y[len(wrr.Y)-1], "LARDR_over_WRR")
}

func BenchmarkFigure8_MissRatioRice(b *testing.B) {
	tables := runExperiment(b, experiments.RiceSweep)
	reportSeries(b, tables[1], "misspct", "WRR", "LARD", "LARD/R")
}

func BenchmarkFigure9_IdleTimeRice(b *testing.B) {
	tables := runExperiment(b, experiments.RiceSweep)
	reportSeries(b, tables[2], "idlepct", "WRR", "LB", "LARD/R")
}

func BenchmarkFigure10_ThroughputIBM(b *testing.B) {
	tables := runExperiment(b, experiments.Figure10)
	reportSeries(b, tables[0], "reqps", "WRR", "LARD/R")
}

func BenchmarkFigure11_WRRvsCPU(b *testing.B) {
	tables := runExperiment(b, experiments.Figure11)
	reportSeries(b, tables[0], "reqps", "1x cpu", "4x cpu, 3x mem")
}

func BenchmarkFigure12_LARDvsCPU(b *testing.B) {
	tables := runExperiment(b, experiments.Figure12)
	reportSeries(b, tables[0], "reqps", "1x cpu", "4x cpu, 3x mem")
}

func BenchmarkFigure13_WRRvsDisks(b *testing.B) {
	tables := runExperiment(b, experiments.Figure13)
	reportSeries(b, tables[0], "reqps", "1 disk", "4 disks")
}

func BenchmarkFigure14_LARDvsDisks(b *testing.B) {
	tables := runExperiment(b, experiments.Figure14)
	reportSeries(b, tables[0], "reqps", "1 disk", "4 disks")
}

func BenchmarkHotspot_LARDRvsLARD(b *testing.B) {
	tables := runExperiment(b, experiments.Hotspot)
	ratio, _ := tables[1].Get("ratio")
	b.ReportMetric(ratio.Y[len(ratio.Y)-1], "LARDR_over_LARD_at_10pct")
}

func BenchmarkChess_WRRvsLARD(b *testing.B) {
	tables := runExperiment(b, experiments.Chess)
	reportSeries(b, tables[0], "reqps", "WRR", "LARD", "LARD/R")
}

func BenchmarkDelay_LARDRvsWRR(b *testing.B) {
	tables := runExperiment(b, experiments.Delay)
	reportSeries(b, tables[0], "ms", "WRR", "LARD/R")
}

func BenchmarkSensitivity_Thresholds(b *testing.B) {
	tables := runExperiment(b, experiments.Sensitivity)
	dd, _ := tables[1].Get("LARD")
	b.ReportMetric(dd.Y[0], "delaydiff_ms_smallest_gap")
	b.ReportMetric(dd.Y[len(dd.Y)-1], "delaydiff_ms_largest_gap")
}

func BenchmarkFailover_LARD(b *testing.B) {
	tables := runExperiment(b, experiments.Failover)
	base, _ := tables[0].Get("tput baseline")
	fail, _ := tables[0].Get("tput failover")
	b.ReportMetric(base.Y[0], "baseline_reqps")
	b.ReportMetric(fail.Y[0], "failover_reqps")
}

func BenchmarkMappingCapacity(b *testing.B) {
	tables := runExperiment(b, experiments.MappingCapacity)
	tput, _ := tables[0].Get("LARD/R")
	b.ReportMetric(tput.Y[0], "bounded500_reqps")
	b.ReportMetric(tput.Y[len(tput.Y)-1], "unbounded_reqps")
}

// BenchmarkSimulatorEventRate measures the discrete-event simulator's raw
// speed: simulated requests processed per wall-clock second.
func BenchmarkSimulatorEventRate(b *testing.B) {
	cfg := trace.RiceProfile()
	cfg.Requests = 50000
	tr := trace.MustGenerate(cfg, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Simulate(cluster.DefaultConfig("lard/r", 8), tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "simreq/s")
}

// --- Section 6.2: front-end microbenchmarks --------------------------------

// liveBackend starts an http.Server behind a handoff listener.
func liveBackend(b *testing.B, handler http.Handler) string {
	b.Helper()
	ln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	b.Cleanup(func() { srv.Close(); ln.Close() })
	return ln.Addr().String()
}

// liveFrontend starts a front end over the given back ends, dispatching
// with the named registry strategy. Admission control is on, as in any
// deployment: the paper's bound S is T_low + 1 = 26 outstanding requests
// over one back end, so BenchmarkHandoffThroughput's RunParallel clients
// (one per GOMAXPROCS) stay under it up to 26 cores and would see 503s
// beyond.
func liveFrontend(b *testing.B, strategy string, backends ...string) string {
	b.Helper()
	fe, err := frontend.New(frontend.Config{Backends: backends, Strategy: strategy})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go fe.Serve(ln)
	b.Cleanup(func() { fe.Close() })
	return ln.Addr().String()
}

// BenchmarkHandoffLatency measures the added per-connection cost of
// dispatch + handoff: one sequential request per iteration through the
// front end (the paper measures 194 µs of added handoff latency; the
// user-space analogue includes a full extra TCP dial).
func BenchmarkHandoffLatency(b *testing.B) {
	beAddr := liveBackend(b, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	feAddr := liveFrontend(b, "wrr", beAddr)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	url := "http://" + feAddr + "/x"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkHandoffThroughput measures the maximal rate at which the front
// end can accept, hand off, and close connections (the paper's ~5000
// connections/sec on a 300 MHz Pentium II).
func BenchmarkHandoffThroughput(b *testing.B) {
	beAddr := liveBackend(b, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	feAddr := liveFrontend(b, "wrr", beAddr)
	url := "http://" + feAddr + "/x"
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		for pb.Next() {
			resp, err := client.Get(url)
			if err != nil {
				b.Error(err)
				return
			}
			resp.Body.Close()
			// Any non-200 (e.g. a 502 after a backend failure) is not a
			// handoff and must not inflate handoffs/s.
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "handoffs/s")
}

// BenchmarkForwardingThroughput measures the forwarding module's data
// rate: bytes relayed through one handed-off connection (the paper
// computes >3.5 Gbit/s from its 9 µs ACK forwarding cost).
func BenchmarkForwardingThroughput(b *testing.B) {
	const chunk = 1 << 20
	payload := make([]byte, chunk)
	beAddr := liveBackend(b, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < b.N; i++ {
			if _, err := w.Write(payload); err != nil {
				return
			}
		}
	}))
	feAddr := liveFrontend(b, "wrr", beAddr)
	b.SetBytes(chunk)
	b.ResetTimer()
	resp, err := http.Get("http://" + feAddr + "/stream")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 256<<10)
	var total int64
	for total < int64(b.N)*chunk {
		n, err := resp.Body.Read(buf)
		total += int64(n)
		if err != nil {
			break
		}
	}
	if total < int64(b.N)*chunk {
		b.Fatalf("read %d of %d bytes", total, int64(b.N)*chunk)
	}
}

// BenchmarkFigure18_Prototype reruns the prototype cluster measurement:
// live WRR vs LARD/R over 3 back ends with the paper's disk model, on
// real loopback HTTP traffic.
func BenchmarkFigure18_Prototype(b *testing.B) {
	cfg := trace.SyntheticConfig{
		Name: "f18", Targets: 400, Requests: 1500, DataSetBytes: 2 << 20,
		ZipfAlpha: 1.0, SizeSigma: 0.8, MinFileBytes: 512,
	}
	tr := trace.MustGenerate(cfg, 7)

	run := func(strategy string) (float64, float64) {
		store := backend.NewDocStore(tr.Targets)
		var addrs []string
		var nodes []*backend.Server
		for i := 0; i < 3; i++ {
			be := backend.New(backend.Config{
				Store:         store,
				CacheBytes:    700 << 10,
				DiskTimeScale: 0.25,
			})
			addrs = append(addrs, liveBackend(b, be.Handler()))
			nodes = append(nodes, be)
		}
		feAddr := liveFrontend(b, strategy, addrs...)
		st, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL: "http://" + feAddr,
			Trace:   tr,
			Clients: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		var hits, reqs uint64
		for _, n := range nodes {
			s := n.Stats()
			hits += s.Hits
			reqs += s.Requests
		}
		return st.Throughput, float64(hits) / float64(reqs)
	}

	var wrrT, wrrH, lardT, lardH float64
	for i := 0; i < b.N; i++ {
		wrrT, wrrH = run("wrr")
		lardT, lardH = run("lard/r")
	}
	b.ReportMetric(wrrT, "WRR_reqps")
	b.ReportMetric(lardT, "LARDR_reqps")
	b.ReportMetric(wrrH*100, "WRR_hitpct")
	b.ReportMetric(lardH*100, "LARDR_hitpct")
}

// TestRiceSweepSmoke regenerates a miniature figure programmatically and
// checks the table identities.
func TestRiceSweepSmoke(t *testing.T) {
	tables, err := experiments.RiceSweep(experiments.Options{
		Seed: 42, Scale: 0.005, Nodes: []int{1, 2},
	})
	if err != nil {
		panic(err)
	}
	got := fmt.Sprint(len(tables), " tables: ", tables[0].ID, " ", tables[1].ID, " ", tables[2].ID)
	if got != "3 tables: figure7 figure8 figure9" {
		t.Fatal(got)
	}
}

// --- Dispatcher scalability: locked vs. sharded ----------------------------

// BenchmarkSessionDispatch measures the session API's overhead against
// the one-shot path it sugars: requests dispatched through an 8-request
// session per connection (one allocation plus policy consultation per
// request) versus the same requests through one-shot Dispatch. Pin skips
// the strategy after the first request, so its per-request cost is the
// floor; perreq is the one-shot path plus session bookkeeping; costaware
// adds the shared recency-table lookup and update.
func BenchmarkSessionDispatch(b *testing.B) {
	const nodes = 8
	targets := make([]string, 1024)
	for i := range targets {
		targets[i] = fmt.Sprintf("/doc%04d.html", i)
	}
	newDisp := func(b *testing.B) publard.Dispatcher {
		d, err := publard.New("lard/r",
			publard.WithNodes(nodes),
			publard.WithMaxOutstanding(-1))
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.Run("oneshot", func(b *testing.B) {
		d := newDisp(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, done, err := d.Dispatch(0, publard.Request{Target: targets[i%len(targets)]})
			if err != nil {
				b.Fatal(err)
			}
			done()
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "dispatch/s")
	})
	for _, mk := range []struct {
		name   string
		policy func() publard.ConnPolicy
	}{
		{"session/pin", publard.Pin},
		{"session/perreq", publard.PerRequest},
		{"session/costaware", func() publard.ConnPolicy { return publard.CostAware(publard.CostAwareConfig{}) }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			d := newDisp(b)
			policy := mk.policy()
			b.ResetTimer()
			i := 0
			for i < b.N {
				s := d.NewSession(policy)
				for r := 0; r < 8 && i < b.N; r++ {
					_, _, done, err := s.Dispatch(0, publard.Request{Target: targets[i%len(targets)]})
					if err != nil {
						b.Fatal(err)
					}
					done()
					i++
				}
				s.Close()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "dispatch/s")
		})
	}
}

// BenchmarkDispatch measures the public dispatch layer's raw throughput:
// Dispatch + done per operation on a 16-node cluster, from 1 to 16
// goroutines, with a single-lock dispatcher versus a sharded one. The
// sharded variant scales with goroutines where the locked variant
// serializes on its one mutex — the "single dispatch point" bottleneck
// made measurable. The gap only appears with 2+ CPUs: on a single-core
// machine nothing runs in parallel, the lock is almost never contended,
// and sharding just costs one extra hash per dispatch. Admission control
// is disabled so the benchmark measures dispatch, not rejection.
func BenchmarkDispatch(b *testing.B) {
	const nodes = 16
	targets := make([]string, 4096)
	for i := range targets {
		targets[i] = fmt.Sprintf("/doc%04d.html", i)
	}
	for _, shards := range []int{1, 2, 8} {
		variant := "locked"
		if shards > 1 {
			variant = fmt.Sprintf("sharded%d", shards)
		}
		for _, gs := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", variant, gs), func(b *testing.B) {
				d, err := publard.New("lard/r",
					publard.WithNodes(nodes),
					publard.WithShards(shards),
					publard.WithMaxOutstanding(-1))
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				per := (b.N + gs - 1) / gs // ceil: run at least b.N dispatches total
				b.ResetTimer()
				for g := 0; g < gs; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						off := g * 37
						for i := 0; i < per; i++ {
							target := targets[(off+i)%len(targets)]
							_, done, err := d.Dispatch(0, publard.Request{Target: target})
							if err != nil {
								b.Error(err)
								return
							}
							done()
						}
					}(g)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(per*gs)/b.Elapsed().Seconds(), "dispatch/s")
			})
		}
	}
}
