// Package cluster implements the LARD paper's trace-driven cluster
// simulator (Section 3): a front end distributing requests over simulated
// back-end nodes, each with a CPU queue, one or more disk queues, and a
// whole-file main-memory cache.
//
// "The assumption is that front end and networks are fast enough not to
// limit the cluster's performance ... Therefore, the front end is assumed
// to have no overhead and all networks have infinite capacity in the
// simulations." The front end dispatches through the public
// lard.Dispatcher, which owns the active-connection accounting and
// enforces the admission bound S = (n−1)·T_high + T_low + 1 cluster-wide:
// the simulated front end is the paper's single dispatch point. The
// request arrival rate is matched to the aggregate throughput of the
// server (closed loop): a new request enters whenever the dispatcher has
// a slot free.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"lard/internal/core"
	"lard/internal/sim"
	"lard/internal/trace"
	"lard/pkg/lard"
)

// Cluster is a fully wired simulation: engine, nodes, dispatcher, and the
// closed-loop front end. Build one with New, run it with Run, or use the
// package-level Simulate convenience.
type Cluster struct {
	cfg        Config
	eng        *sim.Engine
	nodes      []*Node
	gms        *GMS
	d          lard.Dispatcher
	tr         *trace.Trace
	underBound int
	diskFor    func(string) int

	// Front-end state. outstanding mirrors the dispatcher's in-flight
	// count so the hot loop tracks the peak without locking a snapshot.
	outstanding int
	peak        int
	next        int
	dropped     int

	// Persistent-connection state (phttp.go): the connection policy the
	// sessions consult (nil without persistent connections), connections
	// parked on the admission bound mid-stream, and the count of back-end
	// switches (session moves).
	connPolicy lard.ConnPolicy
	stalled    []*connState
	rehandoffs int

	// Delay accounting.
	delaySum     time.Duration
	delayMax     time.Duration
	withinSLO    int
	nodeDelaySum []time.Duration
	nodeDelayCnt []int64

	// Timeline sampling (Config.SampleEvery).
	served       int
	timeline     []TimelineSample
	lastServed   int
	lastMisses   uint64
	lastSampleAt time.Duration
	samplerEv    *sim.Event
}

// New builds a cluster simulation for the given configuration and trace.
func New(cfg Config, tr *trace.Trace) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("cluster: empty trace")
	}
	eng := sim.NewEngine()
	underBound := int(underutilizationFraction * float64(cfg.Params.TLow))

	c := &Cluster{
		cfg:          cfg,
		eng:          eng,
		tr:           tr,
		underBound:   underBound,
		nodeDelaySum: make([]time.Duration, cfg.Nodes),
		nodeDelayCnt: make([]int64, cfg.Nodes),
	}

	c.diskFor = diskAssignment(tr, cfg.Disks)
	for i := 0; i < cfg.Nodes; i++ {
		// Each node serves under its own speed-scaled cost model, so a
		// Speed-2 node really completes identical work in half the time.
		n := newNode(i, eng, cfg.Cost.scaledBy(cfg.profileFor(i).Speed), cfg.newCache(), cfg.Disks, underBound)
		n.diskFor = c.diskFor
		c.nodes = append(c.nodes, n)
	}

	// WRR/GMS dispatches as plain wrr; the global memory system is wired
	// into the simulated nodes below.
	name := cfg.Strategy
	if name == WRRGMS {
		name = "wrr"
	}
	opts := []lard.Option{
		lard.WithNodes(cfg.Nodes),
		lard.WithParams(cfg.Params),
		lard.WithCacheBytes(cfg.CacheBytes),
	}
	if ps := cfg.coreProfiles(); len(ps) > 0 {
		opts = append(opts, lard.WithProfiles(ps...))
	}
	if cfg.MaxOutstanding != 0 {
		opts = append(opts, lard.WithMaxOutstanding(cfg.MaxOutstanding))
	}
	var err error
	c.d, err = lard.New(name, opts...)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Strategy == WRRGMS {
		c.gms = newGMS(c.nodes)
	}
	if cfg.ReqsPerConn >= 1 {
		c.connPolicy = newConnPolicy(cfg)
	}

	c.scheduleChurn()
	c.scheduleSampling()
	return c, nil
}

// Dispatcher returns the dispatch layer driving the cluster, for
// diagnostics (e.g. LARD move counters via Inspect).
func (c *Cluster) Dispatcher() lard.Dispatcher { return c.d }

// Run replays the entire trace and returns the collected metrics.
func (c *Cluster) Run() Result {
	c.pump()
	c.eng.Run()
	return c.collect()
}

// pump admits requests while capacity remains — the closed loop. The
// dispatcher enforces the admission bound: pumping stops when it reports
// ErrOverloaded and resumes when a completion releases a slot. With a
// persistent-connection workload configured, admission happens at
// connection granularity instead (phttp.go).
func (c *Cluster) pump() {
	if c.connPolicy != nil {
		c.pumpPersistent()
		return
	}
	for c.next < c.tr.Len() {
		r := c.tr.At(c.next)
		req := core.Request{Target: r.Target, Size: r.Size}
		node, done, err := c.d.Dispatch(c.eng.Now(), req)
		if errors.Is(err, lard.ErrOverloaded) {
			return // closed loop: resume on the next completion
		}
		c.next++
		if err != nil {
			// Total outage: the request cannot be served.
			c.dropped++
			continue
		}
		c.outstanding++
		if c.outstanding > c.peak {
			c.peak = c.outstanding
		}
		start := c.eng.Now()
		n := c.nodes[node]
		n.Handle(req, func() {
			done()
			c.outstanding--
			c.completeRequest(node, start)
			c.pump()
			if c.outstanding == 0 && c.next >= c.tr.Len() {
				c.finishSampling()
			}
		})
	}
	// A total outage can drop the trace tail with nothing in flight, in
	// which case no completion callback remains to close the timeline.
	if c.outstanding == 0 && c.next >= c.tr.Len() {
		c.finishSampling()
	}
}

// scheduleChurn wires the scripted membership changes into the engine.
func (c *Cluster) scheduleChurn() {
	for _, ev := range c.cfg.Churn {
		ev := ev
		c.eng.At(ev.At, func() { c.applyChurn(ev) })
	}
}

// applyChurn performs one membership change at its virtual time. Events
// that restore or add capacity re-pump the closed loop, since the
// recomputed admission bound S may have opened slots. Validate rejects
// schedules that reference a node before it joins, so the range check
// here is only a belt against future callers bypassing Validate.
func (c *Cluster) applyChurn(ev ChurnEvent) {
	if ev.Op != ChurnJoin && (ev.Node < 0 || ev.Node >= len(c.nodes)) {
		panic(fmt.Sprintf("cluster: churn %s for node %d of %d (unvalidated schedule)",
			ev.Op, ev.Node, len(c.nodes)))
	}
	switch ev.Op {
	case ChurnFail:
		c.d.SetNodeDown(ev.Node, true)
	case ChurnRecover:
		// A recovered node restarts with a cold cache; LARD's mappings to
		// it were invalidated at failure, so it re-warms on new
		// assignments (the Section 2.6 story the churn figure plots).
		c.nodes[ev.Node].cache = c.cfg.newCache()
		c.d.SetNodeDown(ev.Node, false)
		c.pump()
	case ChurnJoin:
		// A join without an explicit profile is a cold standard node; with
		// one, the node both serves at the profile's speed and is admitted
		// into the recomputed bound with its declared thresholds.
		p := NodeProfile{}.fill()
		if ev.Profile != nil {
			p = ev.Profile.fill()
		}
		n := newNode(len(c.nodes), c.eng, c.cfg.Cost.scaledBy(p.Speed), c.cfg.newCache(), c.cfg.Disks, c.underBound)
		n.diskFor = c.diskFor
		c.nodes = append(c.nodes, n)
		c.nodeDelaySum = append(c.nodeDelaySum, 0)
		c.nodeDelayCnt = append(c.nodeDelayCnt, 0)
		if id := c.d.AddNode(); id != n.id {
			panic(fmt.Sprintf("cluster: dispatcher assigned node %d, simulator %d", id, n.id))
		}
		if ev.Profile != nil {
			if err := c.d.SetProfile(n.id, p.Profile); err != nil {
				panic(fmt.Sprintf("cluster: profile for joined node %d: %v", n.id, err))
			}
		}
		c.pump()
	case ChurnDrain:
		c.d.Drain(ev.Node)
	case ChurnUndrain:
		c.d.Undrain(ev.Node)
		c.pump()
	case ChurnLeave:
		c.d.RemoveNode(ev.Node)
	}
}

// scheduleSampling starts the timeline sampler when configured.
func (c *Cluster) scheduleSampling() {
	if c.cfg.SampleEvery > 0 {
		c.samplerEv = c.eng.After(c.cfg.SampleEvery, c.sampleTick)
	}
}

// finishSampling runs when the closed loop drains: it cancels the pending
// tick — which would otherwise fire up to one window after the last
// completion and inflate SimTime — and records the final partial window
// at the exact drain instant.
func (c *Cluster) finishSampling() {
	if c.samplerEv == nil {
		return
	}
	c.eng.Cancel(c.samplerEv)
	c.samplerEv = nil
	c.sampleTick()
}

// sampleTick records one timeline window and reschedules itself while the
// run still has admitted or unadmitted work.
func (c *Cluster) sampleTick() {
	now := c.eng.Now()
	var misses uint64
	for _, n := range c.nodes {
		misses += n.misses
	}
	window := now - c.lastSampleAt
	completed := c.served - c.lastServed
	if window == 0 {
		// The drain coincided with a tick that already recorded this
		// window — but completions at the shared instant fired after the
		// tick (engine FIFO), so fold them into that sample rather than
		// lose them.
		if completed > 0 && len(c.timeline) > 0 {
			last := &c.timeline[len(c.timeline)-1]
			prevMisses := last.MissRatio * float64(last.Completed)
			last.Completed += completed
			last.MissRatio = (prevMisses + float64(misses-c.lastMisses)) / float64(last.Completed)
			prevAt := time.Duration(0)
			if n := len(c.timeline); n > 1 {
				prevAt = c.timeline[n-2].At
			}
			if w := now - prevAt; w > 0 {
				last.Throughput = float64(last.Completed) / w.Seconds()
			}
			c.lastServed = c.served
			c.lastMisses = misses
		}
		return
	}
	s := TimelineSample{At: now, Completed: completed}
	s.Throughput = float64(completed) / window.Seconds()
	if completed > 0 {
		s.MissRatio = float64(misses-c.lastMisses) / float64(completed)
		// Misses accumulated in zero-completion windows (deep backlog)
		// carry forward until a window completes something, so none are
		// dropped from the ratio — this is why it can transiently
		// exceed 1.
		c.lastMisses = misses
	}
	for _, st := range c.d.NodeStates() {
		if st.Eligible() {
			s.AliveNodes++
		}
	}
	c.timeline = append(c.timeline, s)
	c.lastSampleAt = now
	c.lastServed = c.served
	if c.next < c.tr.Len() || c.outstanding > 0 {
		c.samplerEv = c.eng.After(c.cfg.SampleEvery, c.sampleTick)
	} else {
		c.samplerEv = nil
	}
}

// collect assembles the Result after the engine has drained.
func (c *Cluster) collect() Result {
	end := c.eng.Now()
	res := Result{
		Strategy: Label(c.cfg.Strategy),
		Nodes:    len(c.nodes), // configured nodes plus any runtime joins
		Requests: c.tr.Len() - c.dropped,
		Dropped:  c.dropped,
		SimTime:  end,
		Timeline: c.timeline,
	}
	if end > 0 {
		res.Throughput = float64(res.Requests) / end.Seconds()
	}
	if c.cfg.DelaySLO > 0 {
		res.WithinSLO = c.withinSLO
		if end > 0 {
			res.Goodput = float64(c.withinSLO) / end.Seconds()
		}
	}

	var hits, misses, remote, reqs uint64
	var underSum, cpuSum, diskSum float64
	var maxNodeDelay, minNodeDelay time.Duration
	minSet := false
	for i, n := range c.nodes {
		n.finishStats(end)
		st := NodeStats{
			Requests:     n.requests,
			Hits:         n.hits,
			Misses:       n.misses,
			RemoteHits:   n.remote,
			CPUUtil:      n.cpu.Utilization(end),
			UnderFrac:    n.underutilizedFraction(end),
			CacheEntries: n.cache.Len(),
			CacheUsed:    n.cache.Used(),
		}
		var dutil float64
		for _, d := range n.disks {
			dutil += d.Utilization(end)
		}
		st.DiskUtil = dutil / float64(len(n.disks))
		if c.nodeDelayCnt[i] > 0 {
			st.AvgDelay = c.nodeDelaySum[i] / time.Duration(c.nodeDelayCnt[i])
			if !minSet || st.AvgDelay < minNodeDelay {
				minNodeDelay = st.AvgDelay
				minSet = true
			}
			if st.AvgDelay > maxNodeDelay {
				maxNodeDelay = st.AvgDelay
			}
		}
		res.PerNode = append(res.PerNode, st)
		hits += n.hits
		misses += n.misses
		remote += n.remote
		reqs += n.requests
		res.BytesServed += n.bytesSent
		underSum += st.UnderFrac
		cpuSum += st.CPUUtil
		diskSum += st.DiskUtil
	}
	if reqs > 0 {
		res.HitRatio = float64(hits) / float64(reqs)
		res.MissRatio = float64(misses) / float64(reqs)
		res.RemoteFraction = float64(remote) / float64(reqs)
	}
	nn := float64(len(c.nodes))
	res.IdleFraction = underSum / nn
	res.CPUUtilization = cpuSum / nn
	res.DiskUtilization = diskSum / nn
	if res.Requests > 0 {
		res.AvgDelay = c.delaySum / time.Duration(res.Requests)
	}
	res.MaxDelay = c.delayMax
	res.PeakOutstanding = c.peak
	res.Rehandoffs = c.rehandoffs
	if minSet {
		res.NodeDelayDiff = maxNodeDelay - minNodeDelay
	}
	return res
}

// Simulate is the one-call convenience: build and run.
func Simulate(cfg Config, tr *trace.Trace) (Result, error) {
	c, err := New(cfg, tr)
	if err != nil {
		return Result{}, err
	}
	return c.Run(), nil
}

// diskAssignment stripes targets across disks "in round-robin fashion
// based on decreasing order of request frequency in the trace", returning
// nil when a single disk makes striping moot.
func diskAssignment(tr *trace.Trace, disks int) func(string) int {
	if disks <= 1 {
		return nil
	}
	counts := tr.Counts()
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := counts[order[a]], counts[order[b]]
		if ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})
	assign := make(map[string]int, len(order))
	for rank, idx := range order {
		assign[tr.Targets[idx].Name] = rank % disks
	}
	return func(target string) int { return assign[target] }
}
