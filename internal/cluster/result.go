package cluster

import (
	"fmt"
	"time"
)

// Result holds the outputs of one simulation run — the paper's summary
// metrics (Section 3.3: throughput, cache hit/miss ratio, node
// underutilization time) plus delay and utilization detail.
type Result struct {
	Strategy string
	Nodes    int

	// Requests is the number of requests served; Dropped counts requests
	// that could not be assigned (total outages).
	Requests int
	Dropped  int

	// SimTime is the virtual time taken to serve the whole trace.
	SimTime time.Duration

	// Throughput is Requests / SimTime, in requests per second — the
	// paper's primary figure of merit.
	Throughput float64

	// WithinSLO counts served requests whose total delay stayed within
	// Config.DelaySLO, and Goodput is their rate (WithinSLO / SimTime,
	// requests per second). Both are zero unless DelaySLO is set. On a
	// heterogeneous fleet this is the metric that separates
	// capacity-aware from uniform-threshold distribution: queued-up
	// small nodes still complete requests (flat Throughput) but blow the
	// delay bound (collapsed Goodput).
	WithinSLO int
	Goodput   float64

	// HitRatio and MissRatio are over all requests, cluster-wide.
	HitRatio  float64
	MissRatio float64

	// RemoteFraction is the fraction of requests served from another
	// node's memory (WRR/GMS only).
	RemoteFraction float64

	// IdleFraction is the underutilization time fraction averaged over
	// nodes ("% time node underutilized", Figure 9).
	IdleFraction float64

	// AvgDelay and MaxDelay are per-request latency (admission to
	// completion). NodeDelayDiff is the difference between the highest
	// and lowest per-node average delays, the "delay difference between
	// back-end nodes" bounded by the T_high − T_low tradeoff
	// (Section 2.4).
	AvgDelay      time.Duration
	MaxDelay      time.Duration
	NodeDelayDiff time.Duration

	// CPUUtilization and DiskUtilization are averaged over nodes (and
	// disks within a node).
	CPUUtilization  float64
	DiskUtilization float64

	// BytesServed is the total content transferred to clients.
	BytesServed int64

	// PeakOutstanding is the highest number of simultaneously admitted
	// connections observed; it never exceeds S = Params.MaxOutstanding(n).
	PeakOutstanding int

	// Rehandoffs counts back-end switches of persistent connections in
	// per-request re-handoff mode (0 otherwise): each one paid a
	// teardown on the node the connection left and a handoff +
	// establishment where it landed.
	Rehandoffs int

	// PerNode holds per-node detail.
	PerNode []NodeStats

	// Timeline holds windowed activity samples when Config.SampleEvery is
	// set — the time axis of the churn (failure/recovery) figures.
	Timeline []TimelineSample
}

// TimelineSample is one Config.SampleEvery window of cluster activity.
type TimelineSample struct {
	// At is the virtual time at the end of the window.
	At time.Duration

	// Completed is the number of requests that finished in the window;
	// Throughput is Completed over the window length, in requests/sec.
	Completed  int
	Throughput float64

	// MissRatio is the window's cache misses over its completions.
	// Misses are counted at service time and completions at completion
	// time, so a window's ratio can exceed 1 transiently under backlog.
	MissRatio float64

	// AliveNodes counts nodes eligible for new assignments at sample
	// time (member, not draining, not down).
	AliveNodes int
}

// NodeStats is the per-node breakdown of a Result.
type NodeStats struct {
	Requests     uint64
	Hits         uint64
	Misses       uint64
	RemoteHits   uint64
	CPUUtil      float64
	DiskUtil     float64
	UnderFrac    float64
	AvgDelay     time.Duration
	CacheEntries int
	CacheUsed    int64
}

// String summarizes the result on one line, in the spirit of a row from
// the paper's throughput figures.
func (r Result) String() string {
	return fmt.Sprintf("%-8s n=%-2d tput=%8.1f req/s  miss=%5.2f%%  idle=%5.2f%%  delay=%8v",
		r.Strategy, r.Nodes, r.Throughput, r.MissRatio*100, r.IdleFraction*100, r.AvgDelay.Round(time.Microsecond))
}
