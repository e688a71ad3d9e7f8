package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"lard/internal/cluster"
	"lard/internal/trace"
)

// options are what a run needs besides its workload. Only the seed and
// the measured time are the user's; the rest is fixed by defaultOptions
// and shortened under test.
type options struct {
	seed    int64
	seconds float64 // measured time per run

	cold    int           // verified responses set-up waits for
	warm    time.Duration // warm-up, once in set-up and once more with the second path
	slice   time.Duration // how long each path runs before the other takes its turn
	ceiling time.Duration // the generator's run against the canned server
	stages  time.Duration // the stage driver's replay budget

	start func(nodeConfig) (node, error) // startChild, or startLocal under test
}

func defaultOptions(seed int64, seconds float64) options {
	return options{
		seed: seed, seconds: seconds,
		cold: 1000, warm: time.Second, slice: 100 * time.Millisecond,
		ceiling: time.Second, stages: 3 * time.Second,
		start: startChild,
	}
}

// setUps is how often an end-to-end run sets the cluster up: setup_s is
// the median, which one slow spawn does not move.
const setUps = 3

const directCacheBytes = 1 << 30

// clientCount is the measured load: one closed-loop connection per
// processor, at most four, all from this one process.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// fleet is one running cluster with a generator aimed at its front end
// and, once startPlain or startDirect has run, a second path that the
// same generator drives in turns with the cluster.
type fleet struct {
	w   workload
	tr  *trace.Trace
	gen *generator
	fe  node
	be  node

	// The second path takes turns with the cluster, slice by slice, so
	// whatever the host does to one it does to the other. In an end-to-end
	// run it is the yardstick: a plain relay before a canned server, the
	// cluster's processes, sockets and bytes with none of the code under
	// test (other[0] is the relay). In a per-layer run it is a back-end
	// fleet of its own that the generator hands the same requests off to
	// directly, which says what the front end adds.
	other []node
	alt   *generator

	attempted, failed int // over every phase so far
}

func startBackends(tr *trace.Trace, cacheBytes int64, diskScale float64, opt options) (node, error) {
	return opt.start(nodeConfig{
		Role: "be", Back: true, Targets: tr.Targets, Nodes: nodes,
		CacheBytes: cacheBytes, DiskTimeScale: diskScale,
	})
}

// setUp brings a cluster from nothing through its first opt.cold verified
// responses and opt.warm of warm-up. The time it takes is setup_s.
func setUp(w workload, opt options) (*fleet, error) {
	tr, err := w.generate(opt.seed)
	if err != nil {
		return nil, err
	}
	f := &fleet{w: w, tr: tr}
	if f.be, err = startBackends(tr, w.cacheBytes, w.diskScale, opt); err != nil {
		return nil, fmt.Errorf("starting back ends: %w", err)
	}
	f.fe, err = opt.start(nodeConfig{
		Role: "fe", Backends: f.be.Addrs(),
		Strategy: strategy, ConnPolicy: w.policy, Overload: w.overload,
	})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("starting front end: %w", err)
	}
	f.gen = newGenerator(tr, w.reqsPerConn)
	f.gen.addrs = f.fe.Addrs()
	f.count(f.gen.run(f.warmClients(), 0, opt.cold, false))
	f.count(f.gen.run(f.warmClients(), opt.warm, 0, false))
	return f, nil
}

// startPlain starts the yardstick and warms both paths.
func (f *fleet) startPlain(opt options) error {
	canned, err := opt.start(nodeConfig{
		Role: "canned", Back: true, Targets: f.tr.Targets,
		Nodes: nodes, CacheBytes: f.w.cacheBytes, DiskTimeScale: f.w.diskScale,
	})
	if err != nil {
		return fmt.Errorf("starting canned server: %w", err)
	}
	f.other = []node{canned}
	relay, err := opt.start(nodeConfig{Role: "plain", Backends: canned.Addrs()})
	if err != nil {
		return fmt.Errorf("starting plain relay: %w", err)
	}
	f.other = []node{relay, canned}
	f.alt = f.gen.toward(relay.Addrs(), false)
	f.warmBoth(opt)
	return nil
}

// startDirect starts back ends that no front end touches and warms both
// paths. They have room for every document and no disk delay on any
// workload: the processing and network path alone. With the workload's
// own misses they would bring noise of their own, their hit ratio still
// settling while it is measured.
func (f *fleet) startDirect(opt options) error {
	direct, err := startBackends(f.tr, directCacheBytes, 0, opt)
	if err != nil {
		return fmt.Errorf("starting direct back ends: %w", err)
	}
	f.other = []node{direct}
	f.alt = f.gen.toward(direct.Addrs(), true)
	f.warmBoth(opt)
	return nil
}

func (f *fleet) warmBoth(opt options) {
	paths := []*generator{f.gen, f.alt}
	warmed := make([]*window, len(paths))
	var wg sync.WaitGroup
	for i, g := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warmed[i] = g.run(f.warmClients(), opt.warm, 0, false)
		}()
	}
	wg.Wait()
	for _, w := range warmed {
		f.count(w)
	}
}

func (f *fleet) warmClients() int {
	if f.w.warmClients > 0 {
		return f.w.warmClients
	}
	return clientCount()
}

func (f *fleet) count(w *window) *window {
	f.attempted += w.attempted
	f.failed += w.failed
	return w
}

func (f *fleet) close() {
	for _, n := range append([]node{f.fe, f.be}, f.other...) {
		if n != nil {
			n.Close()
		}
	}
}

// measured is one measurement: the cluster's window and the other
// path's, made of alternating slices, with the counters of the cluster
// and of the other path's first process on either side. No request is in
// flight when a snapshot is taken, and the other path's slices add
// nothing to the cluster's counters: its processes are its own.
type measured struct {
	win, alt       *window
	fe0, fe1       snapshot
	be0, be1       snapshot
	other0, other1 snapshot

	// Per pair of adjacent slices, the cluster's number over the other
	// path's. The metric is the median pair: a stall that hits one slice
	// spoils one ratio, not the run's.
	goodputVs, p50Vs, p95Vs []float64
}

// measure spends d on the cluster and the other path together, in
// slices: each slice of the cluster is followed or preceded by as long a
// slice of the other path, on connections that stay open throughout.
func (f *fleet) measure(d time.Duration, opt options, traced bool) (*measured, error) {
	m := &measured{win: &window{}, alt: &window{}}
	cluster, alt := f.gen.crew(clientCount(), traced), f.alt.crew(clientCount(), false)
	defer cluster.close()
	defer alt.close()
	snap := func(fe, be, other *snapshot) (err error) {
		if *fe, err = f.fe.Snapshot(); err != nil {
			return err
		}
		if *be, err = f.be.Snapshot(); err != nil {
			return err
		}
		*other, err = f.other[0].Snapshot()
		return err
	}
	if err := snap(&m.fe0, &m.be0, &m.other0); err != nil {
		return nil, err
	}
	for i, pairs := 0, max(1, int(d/(2*opt.slice))); i < pairs; i++ {
		// Who goes first alternates, so neither path always follows the
		// other's idle time. Both see the same requests.
		var c, a *window
		if i%2 == 0 {
			c = f.count(cluster.run(opt.slice, 0))
		}
		f.alt.cursor.Store(f.gen.cursor.Load())
		a = f.count(alt.run(opt.slice, 0))
		if i%2 == 1 {
			c = f.count(cluster.run(opt.slice, 0))
		}
		if len(c.lats) == 0 || len(a.lats) == 0 {
			return nil, fmt.Errorf("%s: no request completed in a slice of %v", f.w.Name, opt.slice)
		}
		m.goodputVs = append(m.goodputVs, c.goodput()/a.goodput())
		m.p50Vs = append(m.p50Vs, percentile(c.lats, 0.50)/percentile(a.lats, 0.50))
		m.p95Vs = append(m.p95Vs, percentile(c.lats, 0.95)/percentile(a.lats, 0.95))
		m.win.add(c)
		m.alt.add(a)
	}
	if err := snap(&m.fe1, &m.be1, &m.other1); err != nil {
		return nil, err
	}
	return m, nil
}

// n is the number of requests the cluster completed.
func (m *measured) n() float64 { return float64(len(m.win.lats)) }

func (m *measured) feCPUUs() float64 { return float64(m.fe1.cpuUs() - m.fe0.cpuUs()) }
func (m *measured) beCPUUs() float64 { return float64(m.be1.cpuUs() - m.be0.cpuUs()) }

// result is one run's outcome in the shape the last output line has.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	spans []span
	final snapshot // the front end after the last client left, for the audit in bench_test.go
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult keeps exactly the metrics of defs, with their units, and
// fails if one was not measured.
func newResult(f *fleet, defs []metric, values map[string]float64) (*result, error) {
	r := &result{
		Correct:   f.failed == 0,
		Attempted: f.attempted,
		Failed:    f.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", f.w.Name, d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	// The sessions of the clients that just left close on the front end's
	// side a moment later; give them one.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		var err error
		if r.final, err = f.fe.Snapshot(); err != nil {
			return nil, err
		}
		if r.final.InFlight == 0 || time.Now().After(deadline) {
			return r, nil
		}
	}
}

// runEndToEnd measures the end-to-end metrics of one workload with
// tracing off: set up (setUps times, for a steady setup_s; the last
// cluster is the one measured), start the yardstick, warm up, measure.
func runEndToEnd(w workload, opt options) (*result, error) {
	var f *fleet
	var setups []float64
	for range setUps {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = setUp(w, opt); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if f.failed > 0 {
			f.close()
			return nil, fmt.Errorf("%s: %d of %d requests failed during set-up", w.Name, f.failed, f.attempted)
		}
	}
	defer f.close()
	if err := f.startPlain(opt); err != nil {
		return nil, err
	}
	m, err := f.measure(time.Duration(opt.seconds*float64(time.Second)), opt, false)
	if err != nil {
		return nil, err
	}
	v := clusterValues(m)
	v["setup_s"] = median(setups)
	// The relay's CPU per request it forwarded, over the same stretch of
	// time: what a front end that only forwards costs on this host today.
	plainCPU := float64(m.other1.cpuUs()-m.other0.cpuUs()) / float64(len(m.alt.lats))
	v["goodput_vs_plain"] = median(m.goodputVs)
	v["latency_p50_vs_plain"] = median(m.p50Vs)
	v["latency_p95_vs_plain"] = median(m.p95Vs)
	v["fe_cpu_vs_plain"] = v["frontend.cpu_us_per_req"] / plainCPU
	return newResult(f, endToEnd, v)
}

// clusterValues computes what one measurement says about the cluster by
// itself: the rates and times as the clock gave them, the front end's
// memory and the caches' hit ratio.
func clusterValues(m *measured) map[string]float64 {
	var hits, reqs float64
	for i := range m.be1.BE {
		hits += float64(m.be1.BE[i].Hits - m.be0.BE[i].Hits)
		reqs += float64(m.be1.BE[i].Requests - m.be0.BE[i].Requests)
	}
	return map[string]float64{
		"fe_peak_rss_mb":  float64(m.fe1.PeakRSSKB) / 1024,
		"cache_hit_ratio": ratio(hits, reqs),

		"loadgen.goodput_rps":     m.win.goodput(),
		"loadgen.goodput_mb_s":    float64(m.win.bytes) / 1e6 / m.win.seconds(),
		"loadgen.latency_p50_us":  percentile(m.win.lats, 0.50) / 1e3,
		"loadgen.latency_p95_us":  percentile(m.win.lats, 0.95) / 1e3,
		"frontend.cpu_us_per_req": m.feCPUUs() / m.n(),
	}
}

// runPerLayer measures the per-layer metrics of one workload: the
// generator's own ceiling, an untraced and a traced measurement of the
// same cluster in turns with back ends addressed directly, and the stage
// driver.
func runPerLayer(w workload, opt options) (*result, error) {
	f, err := setUp(w, opt)
	if err != nil {
		return nil, err
	}
	defer f.close()

	ceiling, err := f.ceiling(opt)
	if err != nil {
		return nil, err
	}
	if err := f.startDirect(opt); err != nil {
		return nil, err
	}
	half := time.Duration(opt.seconds / 2 * float64(time.Second))
	untraced, err := f.measure(half, opt, false)
	if err != nil {
		return nil, err
	}
	traced, err := f.measure(half, opt, true)
	if err != nil {
		return nil, err
	}

	v := clusterValues(untraced)
	n := untraced.n()
	secs := untraced.win.seconds()
	fe0, fe1 := untraced.fe0.FE, untraced.fe1.FE
	d := func(a, b uint64) float64 { return float64(b - a) }
	directP50 := percentile(untraced.alt.lats, 0.50) / 1e3

	v["loadgen.ceiling_rps"] = ceiling
	v["loadgen.cpu_share"] = float64(untraced.win.cpuUs) / 1e6 / secs / float64(runtime.NumCPU())
	v["loadgen.latency_p99_us"] = percentile(untraced.win.lats, 0.99) / 1e3
	v["loadgen.latency_p999_us"] = percentile(untraced.win.lats, 0.999) / 1e3
	v["loadgen.connect_p50_us"] = percentile(traced.win.connects, 0.50) / 1e3
	v["loadgen.ttfb_p50_us"] = percentile(traced.win.ttfbs, 0.50) / 1e3
	// Both sides are shares of the direct path that ran between their own
	// slices, so a host that sped up between the two windows cancels.
	v["loadgen.trace_overhead_share"] = 1 - median(traced.goodputVs)/median(untraced.goodputVs)

	// What the front end costs against back ends addressed directly.
	// These explain; they gate nothing, because the denominator runs the
	// back end and the handoff listener, which are under test too.
	v["frontend.goodput_vs_direct"] = median(untraced.goodputVs)
	v["frontend.latency_p50_vs_direct"] = median(untraced.p50Vs)
	v["frontend.cpu_share"] = untraced.feCPUUs() / (untraced.feCPUUs() + untraced.beCPUUs())
	v["frontend.added_latency_p50_us"] = v["loadgen.latency_p50_us"] - directP50
	v["frontend.handoffs_per_req"] = d(fe0.Handoffs, fe1.Handoffs) / n
	v["frontend.rehandoffs_per_req"] = d(fe0.Rehandoffs, fe1.Rehandoffs) / n
	hits, misses := d(fe0.PoolHits, fe1.PoolHits), d(fe0.PoolMisses, fe1.PoolMisses)
	v["frontend.pool_hit_ratio"] = ratio(hits, hits+misses)
	v["frontend.stale_retries_per_kreq"] = 1e3 * d(fe0.StaleRetries, fe1.StaleRetries) / n
	v["frontend.redispatches_per_kreq"] = 1e3 * d(fe0.Redispatches, fe1.Redispatches) / n
	v["frontend.rejected_share"] = (d(fe0.Rejected, fe1.Rejected) + d(fe0.QuotaSheds, fe1.QuotaSheds) +
		d(fe0.BreakerSheds, fe1.BreakerSheds)) / float64(untraced.win.attempted)
	v["frontend.allocs_per_req"] = d(untraced.fe0.Mallocs, untraced.fe1.Mallocs) / n
	v["frontend.alloc_bytes_per_req"] = d(untraced.fe0.AllocBytes, untraced.fe1.AllocBytes) / n
	v["frontend.gc_pause_us_per_s"] = d(untraced.fe0.GCPauseNs, untraced.fe1.GCPauseNs) / 1e3 / secs
	v["frontend.cpu_user_us_per_req"] = float64(untraced.fe1.CPUUserUs-untraced.fe0.CPUUserUs) / n
	v["frontend.cpu_sys_us_per_req"] = float64(untraced.fe1.CPUSysUs-untraced.fe0.CPUSysUs) / n

	// Sessions per back-end connection is cumulative since the fleet
	// started: a window in which no connection was opened has no ratio.
	var sessions float64
	for _, s := range untraced.be1.Sessions {
		sessions += float64(s)
	}
	v["handoff.sessions_per_conn"] = ratio(sessions, float64(fe1.PoolMisses))

	var beReqs, beMisses, maxReqs, latencySum float64
	for i := range untraced.be1.BE {
		r := d(untraced.be0.BE[i].Requests, untraced.be1.BE[i].Requests)
		beReqs += r
		maxReqs = max(maxReqs, r)
		beMisses += d(untraced.be0.BE[i].Misses, untraced.be1.BE[i].Misses)
	}
	for _, l := range untraced.win.lats {
		latencySum += float64(l) / 1e9
	}
	diskWait := cluster.DefaultCostModel().DiskReadTime(w.docBytes).Seconds() * w.diskScale
	v["backend.direct_p50_us"] = directP50
	v["backend.cpu_us_per_req"] = untraced.beCPUUs() / n
	v["backend.disk_wait_share"] = beMisses * diskWait / latencySum
	v["backend.max_rel_load"] = ratio(maxReqs, beReqs/float64(len(untraced.be1.BE)))

	st, err := runStages(w, f.tr, opt.stages)
	if err != nil {
		return nil, err
	}
	for name, val := range st.values {
		v[name] = val
	}
	// How much of the latency the front end adds the stages explain: each
	// stage's median times how often a request of this workload passes it.
	perReq := st.values["httprelay.read_request_head_ns"] +
		st.values["lard.session_dispatch_ns"] +
		st.values["httprelay.relay_response_ns"] +
		st.values["metrics.observe_ns"] +
		ratio(misses, n)*st.values["handoff.dial_send_us"]*1e3 +
		ratio(hits, n)*st.values["handoff.pooled_send_us"]*1e3
	if w.overload {
		perReq += st.values["quota.allow_ns"] + v["frontend.handoffs_per_req"]*st.values["breaker.allow_ns"]
	}
	v["frontend.stage_coverage"] = ratio(perReq/1e3, v["frontend.added_latency_p50_us"])

	r, err := newResult(f, perLayer, v)
	if err != nil {
		return nil, err
	}
	r.spans = append(traced.win.spans, st.spans...)
	return r, nil
}

// ceiling runs the generator against a server that costs nothing: the
// rate above which a workload measures the generator.
func (f *fleet) ceiling(opt options) (float64, error) {
	canned, err := opt.start(nodeConfig{Role: "canned", Targets: f.tr.Targets})
	if err != nil {
		return 0, fmt.Errorf("starting canned server: %w", err)
	}
	defer canned.Close()
	g := f.gen.toward(canned.Addrs(), false)
	return f.count(g.run(clientCount(), opt.ceiling, 0, false)).goodput(), nil
}
