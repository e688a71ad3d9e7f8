// Command lardfe runs the prototype front end (paper Section 6): it
// accepts client HTTP connections, dispatches each to a back end with the
// configured distribution strategy, and hands the connection off.
//
// Usage:
//
//	lardfe -listen 127.0.0.1:8080 \
//	       -backends 127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 \
//	       -strategy lard/r -connpolicy costaware -shards 4 \
//	       -admin 127.0.0.1:8081
//
// -connpolicy selects how persistent client connections trade affinity
// against locality (pin | perreq | costaware, see pkg/lard.ConnPolicy).
//
// Every handoff rides a per-back-end pool of idle handoff connections
// (the session-sequenced handoff protocol): a handoff to a node with an
// idle pooled connection reuses it instead of dialing, so the
// per-handoff cost is protocol processing, not TCP establishment. A node
// is marked down after three consecutive failed dials and probed back
// every second; DESIGN.md's "Knob ledger" has these values and why they
// are not flags.
//
// Overload protection (see DESIGN.md "Overload protection"):
//
//   - -quota RATE (requests/second per client IP, 0 = off) bounds each
//     client's request rate with a token bucket of max(RATE, 1) tokens;
//     over-quota clients get closing 429s with Retry-After.
//   - -breaker layers per-back-end circuit breakers under the mark-down
//     prober: a node that keeps failing dials is gated out with
//     exponential backoff between probe rounds and a graduated admission
//     ramp on recovery.
//
// The optional admin server exposes cluster membership and counters:
//
//	GET  /admin/nodes            per-node state (addr, health, drain, load,
//	                             capacity profile)
//	GET  /admin/stats            JSON snapshot: dispatches, rejects,
//	                             rehandoffs (+ failed moves, re-dispatches),
//	                             pool hits/misses/evictions/idle, stale
//	                             retries, per-policy session counts, sheds,
//	                             breaker trips/states, ...
//	GET  /admin/metrics          Prometheus text exposition: every counter
//	                             /admin/stats shows, as lard_fe_* series
//	                             (handoffs, re-handoffs, pool checkouts,
//	                             sheds by reason, ...), plus breaker
//	                             transitions and latency histograms per
//	                             conn-policy and per node
//	POST /admin/drain?node=N     stop new assignments to node N
//	POST /admin/undrain?node=N   restore a draining node
//	POST /admin/remove?node=N    permanently remove node N
//	POST /admin/add?addr=H:P     join a new back end
//	POST /admin/profile?node=N&weight=W[&tlow=L&thigh=H]
//	                             retune node N's capacity profile live: the
//	                             admission bound recomputes and
//	                             profile-aware strategies re-weight their
//	                             placement (omitted thresholds scale from
//	                             -tlow/-thigh by the weight)
//	GET  /debug/pprof/...        net/http/pprof; mutex contention is
//	                             sampled while the admin server is on
//
// Heterogeneous fleets: -weights 0.5,1,2 advertises per-back-end
// capacity, scaling each node's T_low/T_high and steering
// capacity-aware strategies (wlard, wrr) proportionally. The
// admission bound generalizes to S = ΣT_high,i − maxT_high,i +
// minT_low,i + 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lard/internal/breaker"
	"lard/internal/core"
	"lard/internal/frontend"
	"lard/pkg/lard"
)

// options collects the parsed command line.
type options struct {
	listen     string
	backends   string
	strategy   string
	shards     int
	params     core.Params
	cacheBytes int64
	connpolicy string
	weights    string
	statsEach  time.Duration
	admin      string
	quotaRate  float64
	breakerOn  bool
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", "127.0.0.1:8080", "client listen address")
	flag.StringVar(&o.backends, "backends", "", "comma-separated back-end handoff addresses")
	flag.StringVar(&o.strategy, "strategy", "lard/r", "distribution strategy: "+strings.Join(lard.Strategies(), ", "))
	flag.IntVar(&o.shards, "shards", 1, "dispatcher shards (1 = the paper's single dispatch point)")
	tlow := flag.Int("tlow", 25, "LARD T_low (active connections)")
	thigh := flag.Int("thigh", 65, "LARD T_high (active connections)")
	k := flag.Duration("k", 20*time.Second, "LARD/R replication timer K")
	mapCap := flag.Int("mapcap", 0, "LRU bound on the target mapping (0 = unbounded)")
	flag.Int64Var(&o.cacheBytes, "cachebytes", lard.DefaultCacheBytes, "per-node cache size assumed by lb/gc")
	flag.StringVar(&o.weights, "weights", "",
		"comma-separated per-back-end capacity weights aligned with -backends (e.g. 0.5,1,2); empty = uniform")
	flag.StringVar(&o.connpolicy, "connpolicy", "",
		"persistent-connection dispatch policy: pin, perreq, or costaware (default pin)")
	flag.DurationVar(&o.statsEach, "stats", 0, "print stats at this interval (0 = never)")
	flag.StringVar(&o.admin, "admin", "", "admin listen address for /admin/nodes and /admin/drain (empty = off)")
	flag.Float64Var(&o.quotaRate, "quota", 0, "per-client request quota in requests/second (0 = no quota)")
	flag.BoolVar(&o.breakerOn, "breaker", false, "enable per-back-end circuit breakers")
	flag.Parse()

	o.params = core.Params{TLow: *tlow, THigh: *thigh, K: *k, MappingCapacity: *mapCap}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "lardfe:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	fe, err := newFrontEnd(o)
	if err != nil {
		return err
	}
	if o.statsEach > 0 {
		go func() {
			for range time.Tick(o.statsEach) {
				st := fe.Stats()
				log.Printf("stats: accepted=%d handoffs=%d passed=%d direct=%d rehandoffs=%d resumes=%d rhfail=%d redispatch=%d stale=%d pool=%d/%d/%d/%d errors=%d rejected=%d down=%d probes=%d recovered=%d c2b=%dB b2c=%dB active=%v",
					st.Accepted, st.Handoffs, st.Passed, st.Direct, st.Rehandoffs, st.SessionResumes, st.RehandoffFails,
					st.Redispatches, st.StaleRetries,
					st.PoolHits, st.PoolMisses, st.PoolEvictions, st.PoolIdle,
					st.Errors, st.Rejected,
					st.MarkedDown, st.Probes, st.ProbeRecoveries,
					st.ClientToBackend, st.BackendToClient, st.ActivePerNode)
			}
		}()
	}
	if o.admin != "" {
		srv := adminServer(o.admin, fe)
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("lardfe: admin server: %v", err)
			}
		}()
		fmt.Printf("lardfe: admin endpoints on %s\n", o.admin)
	}
	d := fe.Dispatcher()
	fmt.Printf("lardfe: %s over %d back ends on %s (shards=%d connpolicy=%s)\n",
		d.Name(), d.NodeCount(), o.listen, d.Shards(), fe.ConnPolicy().Name())
	return fe.ListenAndServe(o.listen)
}

// newFrontEnd checks the command line and builds the front end it
// describes, without serving.
func newFrontEnd(o options) (*frontend.Server, error) {
	addrs := splitAddrs(o.backends)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("no back ends configured (use -backends)")
	}
	profiles, err := parseWeights(o.weights, len(addrs))
	if err != nil {
		return nil, err
	}
	if o.shards < 1 {
		return nil, fmt.Errorf("-shards must be at least 1")
	}
	var bcfg *breaker.Config
	if o.breakerOn {
		bcfg = &breaker.Config{}
	}
	return frontend.New(frontend.Config{
		Backends:   addrs,
		Strategy:   o.strategy,
		Shards:     o.shards,
		Params:     o.params,
		CacheBytes: o.cacheBytes,
		Profiles:   profiles,
		ConnPolicy: o.connpolicy,
		QuotaRate:  o.quotaRate,
		Breaker:    bcfg,
		ErrorLog:   log.New(os.Stderr, "", log.LstdFlags),
	})
}

// adminHeaderTimeout is how long the admin server gives a request head
// from its first byte, the same as a back end's HTTPServer: without one,
// half a head holds a goroutine for ever.
const adminHeaderTimeout = 5 * time.Second

// mutexProfileRate is the runtime's mutex profile fraction while the admin
// server is on: on average one contention event in this many is sampled
// for /debug/pprof/mutex, which is empty at the runtime's default of 0.
const mutexProfileRate = 10

// adminServer is the -admin server on addr. It turns mutex profiling on.
func adminServer(addr string, fe *frontend.Server) *http.Server {
	runtime.SetMutexProfileFraction(mutexProfileRate)
	return &http.Server{Addr: addr, Handler: adminMux(fe), ReadHeaderTimeout: adminHeaderTimeout}
}

// adminMux serves the membership endpoints over the given front end, and
// net/http/pprof's under /debug/pprof/: a heap or CPU profile of the live
// front end, registered here rather than on http.DefaultServeMux.
func adminMux(fe *frontend.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/admin/nodes", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(fe.Nodes())
	})
	mux.HandleFunc("/admin/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(fe.Stats())
	})
	mux.HandleFunc("/admin/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fe.Metrics().WritePrometheus(w)
	})
	nodeOp := func(name string, op func(int)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			node, err := strconv.Atoi(r.URL.Query().Get("node"))
			states := fe.Dispatcher().NodeStates()
			if err != nil || node < 0 || node >= len(states) {
				http.Error(w, "bad or missing node parameter", http.StatusBadRequest)
				return
			}
			if !states[node].Member {
				// Membership ops on a removed node are silent no-ops in
				// the dispatcher; don't report success for them.
				http.Error(w, fmt.Sprintf("node %d has been removed", node), http.StatusConflict)
				return
			}
			op(node)
			fmt.Fprintf(w, "%s node %d\n", name, node)
		}
	}
	mux.HandleFunc("/admin/profile", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		node, err := strconv.Atoi(r.URL.Query().Get("node"))
		if err != nil {
			http.Error(w, "bad or missing node parameter", http.StatusBadRequest)
			return
		}
		var p core.Profile
		q := r.URL.Query()
		// At least one field must be given; omitted ones stay zero and
		// fill from the weight-scaled defaults, exactly as at startup.
		if q.Get("weight") == "" && q.Get("tlow") == "" && q.Get("thigh") == "" {
			http.Error(w, "give at least one of weight, tlow, thigh", http.StatusBadRequest)
			return
		}
		if v := q.Get("weight"); v != "" {
			if p.Weight, err = strconv.ParseFloat(v, 64); err != nil {
				http.Error(w, "bad weight parameter", http.StatusBadRequest)
				return
			}
		}
		if v := q.Get("tlow"); v != "" {
			if p.TLow, err = strconv.Atoi(v); err != nil {
				http.Error(w, "bad tlow parameter", http.StatusBadRequest)
				return
			}
		}
		if v := q.Get("thigh"); v != "" {
			if p.THigh, err = strconv.Atoi(v); err != nil {
				http.Error(w, "bad thigh parameter", http.StatusBadRequest)
				return
			}
		}
		if err := fe.SetProfile(node, p); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		got := fe.Dispatcher().Profiles()[node]
		fmt.Fprintf(w, "node %d profile tlow=%d thigh=%d weight=%g\n", node, got.TLow, got.THigh, got.Weight)
	})
	mux.HandleFunc("/admin/drain", nodeOp("draining", fe.DrainBackend))
	mux.HandleFunc("/admin/undrain", nodeOp("undrained", fe.UndrainBackend))
	mux.HandleFunc("/admin/remove", nodeOp("removed", fe.RemoveBackend))
	mux.HandleFunc("/admin/add", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		addr := r.URL.Query().Get("addr")
		// Joining a node is irreversible (indices are never reused), so
		// reject malformed addresses before they enter rotation.
		if host, port, err := net.SplitHostPort(addr); err != nil || host == "" || port == "" {
			http.Error(w, "addr parameter must be host:port", http.StatusBadRequest)
			return
		}
		node := fe.AddBackend(addr)
		fmt.Fprintf(w, "added node %d at %s\n", node, addr)
	})
	return mux
}

// parseWeights parses the -weights flag into capacity profiles: one
// weight per back end, thresholds derived by scaling -tlow/-thigh.
func parseWeights(weights string, backends int) ([]core.Profile, error) {
	if weights == "" {
		return nil, nil
	}
	parts := strings.Split(weights, ",")
	if len(parts) != backends {
		return nil, fmt.Errorf("-weights lists %d weights for %d back ends", len(parts), backends)
	}
	profiles := make([]core.Profile, len(parts))
	for i, part := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("-weights entry %d (%q) must be a positive number", i, part)
		}
		profiles[i] = core.Profile{Weight: w}
	}
	return profiles, nil
}

// splitAddrs parses the comma-separated -backends flag.
func splitAddrs(backends string) []string {
	var addrs []string
	for _, a := range strings.Split(backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}
