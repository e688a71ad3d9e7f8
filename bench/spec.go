package main

import (
	"lard/internal/trace"
)

// metric is one named measurement: its unit, which direction is better,
// and — for end-to-end metrics only — the share of the parent's median
// by which it may worsen before a change counts as a regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the cluster sees. BENCHMARK.json carries
// the same list; bench_test.go keeps the two equal. The rates and times
// are shares of the plain path's (run.go, fleet.other), measured in turns
// with the cluster: on a host whose speed wanders by a quarter within a
// minute that is the form in which they repeat (README.md, Steadiness).
// The numbers as the clock gave them are the first loadgen. and frontend.
// entries of perLayer.
var endToEnd = []metric{
	{"goodput_vs_plain", "ratio", "higher", 0.25},
	{"latency_p50_vs_plain", "ratio", "lower", 0.25},
	{"latency_p95_vs_plain", "ratio", "lower", 0.25},
	{"fe_cpu_vs_plain", "ratio", "lower", 0.25},
	{"fe_peak_rss_mb", "MB", "lower", 0.10},
	{"cache_hit_ratio", "ratio", "higher", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer metrics, prefixed by the module they
// belong to. They carry no bound: they explain an end-to-end movement,
// they do not gate one.
var perLayer = []metric{
	{Name: "loadgen.goodput_rps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.goodput_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "loadgen.latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.latency_p95_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.ceiling_rps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.latency_p999_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.connect_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.ttfb_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.trace_overhead_share", Unit: "ratio", Better: "lower"},

	{Name: "frontend.goodput_vs_direct", Unit: "ratio", Better: "higher"},
	{Name: "frontend.latency_p50_vs_direct", Unit: "ratio", Better: "lower"},
	{Name: "frontend.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "frontend.added_latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "frontend.handoffs_per_req", Unit: "count", Better: "lower"},
	{Name: "frontend.rehandoffs_per_req", Unit: "count", Better: "lower"},
	{Name: "frontend.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "frontend.stale_retries_per_kreq", Unit: "count", Better: "lower"},
	{Name: "frontend.redispatches_per_kreq", Unit: "count", Better: "lower"},
	{Name: "frontend.rejected_share", Unit: "ratio", Better: "lower"},
	{Name: "frontend.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "frontend.alloc_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "frontend.gc_pause_us_per_s", Unit: "us/s", Better: "lower"},
	{Name: "frontend.cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "frontend.cpu_user_us_per_req", Unit: "us", Better: "lower"},
	{Name: "frontend.cpu_sys_us_per_req", Unit: "us", Better: "lower"},
	{Name: "frontend.stage_coverage", Unit: "ratio", Better: "higher"},

	{Name: "lard.session_dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "lard.session_dispatch_allocs", Unit: "count", Better: "lower"},
	{Name: "lard.oneshot_dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "lard.self_ns", Unit: "ns", Better: "lower"},
	{Name: "lard.dispatch_ns_loaded", Unit: "ns", Better: "lower"},
	{Name: "lard.dispatch_ns_shards1", Unit: "ns", Better: "lower"},
	{Name: "lard.dispatch_ns_shards8", Unit: "ns", Better: "lower"},
	{Name: "lard.moves_per_req", Unit: "count", Better: "lower"},
	{Name: "lard.overloaded_share", Unit: "ratio", Better: "lower"},

	{Name: "core.select_ns", Unit: "ns", Better: "lower"},
	{Name: "core.select_allocs", Unit: "count", Better: "lower"},
	{Name: "core.select_ns_loaded", Unit: "ns", Better: "lower"},

	{Name: "handoff.dial_send_us", Unit: "us", Better: "lower"},
	{Name: "handoff.pooled_send_us", Unit: "us", Better: "lower"},
	{Name: "handoff.allocs_per_handoff", Unit: "count", Better: "lower"},
	{Name: "handoff.sessions_per_conn", Unit: "count", Better: "higher"},

	{Name: "httprelay.read_request_head_ns", Unit: "ns", Better: "lower"},
	{Name: "httprelay.read_request_head_allocs", Unit: "count", Better: "lower"},
	{Name: "httprelay.read_response_head_ns", Unit: "ns", Better: "lower"},
	{Name: "httprelay.relay_response_ns", Unit: "ns", Better: "lower"},
	{Name: "httprelay.relay_response_allocs", Unit: "count", Better: "lower"},
	{Name: "httprelay.relay_ns_per_kb", Unit: "ns/KB", Better: "lower"},

	{Name: "backend.direct_p50_us", Unit: "us", Better: "lower"},
	{Name: "backend.cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "backend.disk_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "backend.max_rel_load", Unit: "ratio", Better: "lower"},

	{Name: "cache.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.evictions_per_kreq", Unit: "count", Better: "lower"},

	{Name: "quota.allow_ns", Unit: "ns", Better: "lower"},
	{Name: "breaker.allow_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.observe_ns", Unit: "ns", Better: "lower"},
}

// Common set-up shared by every workload: the paper's prototype shape
// (one front end, a handful of back ends) at the defaults a user gets.
const (
	nodes       = 4
	strategy    = "lard/r"
	traceLength = 1 << 16 // requests generated per seed; the cursor wraps
)

// workload is one traffic mix. Everything the cluster's behaviour
// depends on is here; the seed only picks the catalog's sizes and the
// request order.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	targets  int     // catalog size
	docBytes int64   // mean document size
	zipf     float64 // popularity skew

	policy      string // front-end connection policy
	reqsPerConn int    // requests per client connection; 0 = never closes
	overload    bool   // quota (never sheds) and breakers enabled

	cacheBytes int64   // per-node cache
	diskScale  float64 // emulated disk delay scale; 0 = none

	// warmClients connections warm the cluster before the measured
	// window. The disk-bound workload uses more than it measures with:
	// its caches fill at the speed disk waits overlap.
	warmClients int
}

var workloads = []workload{
	{
		Name:    "keepalive_small",
		Why:     "8 KB hot documents on connections that never close: head parse, session stay and response relay dominate, handoff is idle",
		targets: 256, docBytes: 8 << 10, zipf: 0.9,
		policy: "pin", cacheBytes: 64 << 20,
	},
	{
		Name:    "conn_per_request",
		Why:     "the paper's HTTP/1.0 case, one request per connection with quota and breakers on: accept, full dispatch, dial and handoff per request",
		targets: 256, docBytes: 8 << 10, zipf: 0.9,
		policy: "pin", reqsPerConn: 1, overload: true, cacheBytes: 64 << 20,
	},
	{
		Name:    "rehandoff_perreq",
		Why:     "16-request connections re-dispatched per request: pooled session-framed handoff without accept or dial, the other half of the handoff layer",
		targets: 256, docBytes: 8 << 10, zipf: 0.9,
		policy: "perreq", reqsPerConn: 16, cacheBytes: 64 << 20,
	},
	{
		Name:    "large_body",
		Why:     "512 KB documents: per-byte relay copy dominates and per-request stages are diluted, so dispatch or handoff work should not show here",
		targets: 64, docBytes: 512 << 10, zipf: 0.9,
		policy: "pin", cacheBytes: 256 << 20,
	},
	{
		Name:    "locality_disk",
		Why:     "64 MB catalog over 4 x 8 MB caches with emulated disk misses: goodput follows the hit ratio, so a placement change shows and a fast-path change should not",
		targets: 8192, docBytes: 8 << 10, zipf: 0.8,
		policy: "perreq", cacheBytes: 8 << 20, diskScale: 0.1,
		warmClients: 32,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// generate draws the workload's catalog and request order from the seed.
// Sizes vary a little around the mean so a wrong-length response cannot
// pass by accident, and not more, so the byte rate does not depend on
// which documents the seed happens to make popular.
func (w workload) generate(seed int64) (*trace.Trace, error) {
	return trace.Generate(trace.SyntheticConfig{
		Name:         w.Name,
		Catalog:      "b",
		Targets:      w.targets,
		Requests:     traceLength,
		DataSetBytes: int64(w.targets) * w.docBytes,
		ZipfAlpha:    w.zipf,
		SizeSigma:    0.1,
		MinFileBytes: 512,
	}, seed)
}
