package capacity

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"lard/internal/backend"
	"lard/internal/breaker"
	"lard/internal/frontend"
	"lard/internal/handoff"
	"lard/internal/loadgen"
	"lard/internal/trace"
)

// FleetConfig describes one live in-process cluster: n back ends behind
// one front end on loopback, plus the workload the prober offers it.
type FleetConfig struct {
	// Nodes is the back-end count (default 4).
	Nodes int

	// Shards is the front end's dispatcher sharding: 1 is the paper's
	// single locked dispatch point, >1 the sharded variant (default 1).
	Shards int

	// Strategy is the dispatch policy (default "lard/r").
	Strategy string

	// ConnPolicy is the per-connection handoff policy: "pin", "perreq",
	// or "costaware" (default "pin").
	ConnPolicy string

	// Trace is the workload (required). The fleet's document store
	// serves its catalog.
	Trace *trace.Trace

	// CacheBytes is the per-node cache capacity (default: large enough
	// that capacity is bounded by the dispatch/relay path, not by
	// emulated disk).
	CacheBytes int64

	// DiskTimeScale scales the back ends' emulated disk delay on cache
	// misses (default 0: the harness measures the front end's dispatch
	// and relay capacity, not the paper's disk model).
	DiskTimeScale float64

	// Clients is how many load-generator connections offer the paced
	// load (default 32). It bounds in-flight requests: when the cluster
	// falls behind the offered schedule the backlog surfaces as latency.
	Clients int

	// ProbeDuration is each measurement window (default 2s).
	ProbeDuration time.Duration

	// ReqsPerConn, when > 0, uses loadgen's P-HTTP mode with this mean
	// requests-per-connection; 0 uses net/http keep-alive clients.
	ReqsPerConn int

	// QuotaRate/QuotaBurst/QuotaMaxClients configure the front end's
	// per-client-IP quota (0 rate = off), for overload experiments like
	// RunHerd.
	QuotaRate       float64
	QuotaBurst      float64
	QuotaMaxClients int

	// Breaker, when non-nil, enables the front end's per-back-end
	// circuit breakers with this configuration.
	Breaker *breaker.Config
}

func (c *FleetConfig) fill() error {
	if c.Trace == nil || c.Trace.Len() == 0 {
		return fmt.Errorf("capacity: FleetConfig.Trace required")
	}
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Strategy == "" {
		c.Strategy = "lard/r"
	}
	if c.ConnPolicy == "" {
		c.ConnPolicy = "pin"
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Clients <= 0 {
		c.Clients = 32
	}
	if c.ProbeDuration <= 0 {
		c.ProbeDuration = 2 * time.Second
	}
	return nil
}

// Fleet is a running in-process cluster ready to be probed.
type Fleet struct {
	cfg    FleetConfig
	fe     *frontend.Server
	feAddr string

	srvs []*http.Server
	lns  []*handoff.Listener
}

// NewFleet starts the cluster: Nodes back ends (each a handoff listener
// feeding an unmodified net/http server, exactly the prototype stack)
// and one front end dispatching to them.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg}
	store := backend.NewDocStore(cfg.Trace.Targets)
	var addrs []string
	for i := 0; i < cfg.Nodes; i++ {
		be := backend.New(backend.Config{
			Store:         store,
			CacheBytes:    cfg.CacheBytes,
			DiskTimeScale: cfg.DiskTimeScale,
		})
		ln, err := handoff.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("capacity: back-end listener: %w", err)
		}
		srv := be.HTTPServer()
		go srv.Serve(ln)
		f.lns = append(f.lns, ln)
		f.srvs = append(f.srvs, srv)
		addrs = append(addrs, ln.Addr().String())
	}
	fe, err := frontend.New(frontend.Config{
		Backends:        addrs,
		Strategy:        cfg.Strategy,
		Shards:          cfg.Shards,
		ConnPolicy:      cfg.ConnPolicy,
		QuotaRate:       cfg.QuotaRate,
		QuotaBurst:      cfg.QuotaBurst,
		QuotaMaxClients: cfg.QuotaMaxClients,
		Breaker:         cfg.Breaker,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("capacity: front-end listener: %w", err)
	}
	go fe.Serve(ln)
	f.fe = fe
	f.feAddr = ln.Addr().String()
	return f, nil
}

// Addr returns the front end's serving address.
func (f *Fleet) Addr() string { return f.feAddr }

// Frontend returns the running front end, for stats inspection.
func (f *Fleet) Frontend() *frontend.Server { return f.fe }

// Close tears the cluster down.
func (f *Fleet) Close() {
	if f.fe != nil {
		f.fe.Close()
	}
	for _, srv := range f.srvs {
		srv.Close()
	}
	for _, ln := range f.lns {
		ln.Close()
	}
}

// Prober returns the fleet's measurement function: offer rate req/s for
// ProbeDuration through the load generator and summarize the window.
func (f *Fleet) Prober(ctx context.Context) Prober {
	return func(rate float64) (Measurement, error) {
		lg := loadgen.Config{
			BaseURL:  "http://" + f.feAddr,
			Trace:    f.cfg.Trace,
			Clients:  f.cfg.Clients,
			Rate:     rate,
			Duration: f.cfg.ProbeDuration,
			// The request budget doubles as a runaway guard: the window
			// normally ends on the clock.
			Requests:  int(rate*f.cfg.ProbeDuration.Seconds()) + f.cfg.Clients,
			KeepAlive: true,
			Timeout:   f.cfg.ProbeDuration + 5*time.Second,
		}
		if f.cfg.ReqsPerConn > 0 {
			lg.ReqsPerConn = f.cfg.ReqsPerConn
		}
		st, err := loadgen.Run(ctx, lg)
		if err != nil {
			return Measurement{}, err
		}
		m := Measurement{
			OfferedRate: rate,
			Throughput:  st.Throughput,
			P99:         st.LatencyP99,
			Requests:    st.Requests,
			Errors:      st.Errors,
			Sheds:       st.Sheds,
		}
		// Sheds are deliberate load rejection, not failure: they join the
		// denominator (the request was offered) but not the error count,
		// so a quota doing its job does not break the SLO by itself.
		if total := st.Requests + st.Errors + st.Sheds; total > 0 {
			m.ErrRate = float64(st.Errors) / float64(total)
		} else {
			// A window that produced nothing at a nonzero offered rate is
			// a broken cluster, not a sustained one.
			m.ErrRate = 1
		}
		return m, nil
	}
}
