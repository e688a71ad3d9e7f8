// Command lardbe runs a prototype back-end node (paper Section 6): an
// HTTP server behind a handoff listener, serving a synthetic document
// store through an in-memory cache with emulated disk misses.
//
// Usage:
//
//	lardbe -listen 127.0.0.1:9001 -profile rice -cache 32m -diskscale 0.01
//
// All back ends of a cluster must use the same -profile and -seed so they
// serve identical catalogs (any node can serve any target, paper §2.1).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"lard/internal/backend"
	"lard/internal/handoff"
	"lard/internal/trace"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:9001", "handoff listen address")
		profile   = flag.String("profile", "rice", "document catalog: rice, ibm, or chess")
		seed      = flag.Int64("seed", 42, "catalog generation seed (must match the other back ends)")
		cacheSize = flag.String("cache", "32m", "cache capacity (e.g. 8m, 64m)")
		diskScale = flag.Float64("diskscale", 0.01, "emulated disk delay scale (1.0 = full 28ms seeks, 0 = none)")
		statsEach = flag.Duration("stats", 0, "print handoff/cache stats at this interval (0 = never)")
	)
	flag.Parse()

	if err := run(*listen, *profile, *seed, *cacheSize, *diskScale, *statsEach); err != nil {
		fmt.Fprintln(os.Stderr, "lardbe:", err)
		os.Exit(1)
	}
}

func run(listen, profile string, seed int64, cacheSize string, diskScale float64, statsEach time.Duration) error {
	capacity, err := parseBytes(cacheSize)
	if err != nil {
		return err
	}
	cfg, err := profileByName(profile)
	if err != nil {
		return err
	}
	// The back end only needs the catalog, not the request stream.
	cfg.Requests = 0
	tr, err := trace.Generate(cfg, seed)
	if err != nil {
		return err
	}

	be := backend.New(backend.Config{
		Store:         backend.NewDocStore(tr.Targets),
		CacheBytes:    capacity,
		DiskTimeScale: diskScale,
	})

	ln, err := handoff.Listen("tcp", listen)
	if err != nil {
		return err
	}
	if statsEach > 0 {
		// Sessions vs. handled requests is the pooled-handoff view: with
		// session-framed transports many sessions (and more requests)
		// ride each accepted TCP connection. loop_sessions vs. takeovers
		// is how many of them the node's loop kept from net/http; passed
		// is how many were client connections a front end on this host
		// handed over by descriptor; direct is how many responses went
		// to a client's own socket (split sessions and passed
		// connections), not through the front end; writes vs.
		// hits+misses is one response, one write.
		go func() {
			for range time.Tick(statsEach) {
				st := be.Stats()
				fmt.Printf("lardbe: sessions=%d passed=%d direct=%d rejected=%d takeovers=%d loop_sessions=%d requests=%d hits=%d misses=%d writes=%d cache=%dB/%d\n",
					ln.Sessions(), ln.Passed(), ln.Direct(), ln.Rejected(), st.Takeovers, st.LoopSessions, st.Requests, st.Hits, st.Misses, st.Writes, st.CacheUsed, st.CacheLen)
			}
		}()
	}
	fmt.Printf("lardbe: serving %d documents on %s (cache %s, policy GDSF, disk scale %g)\n",
		tr.TargetCount(), ln.Addr(), cacheSize, diskScale)
	return be.HTTPServer().Serve(ln)
}

func profileByName(name string) (trace.SyntheticConfig, error) {
	switch strings.ToLower(name) {
	case "rice":
		return trace.RiceProfile(), nil
	case "ibm":
		return trace.IBMProfile(), nil
	case "chess":
		return trace.ChessProfile(), nil
	default:
		return trace.SyntheticConfig{}, fmt.Errorf("unknown profile %q (want rice, ibm, or chess)", name)
	}
}

// parseBytes understands "32m", "512k", "1g", or plain byte counts. A size
// whose byte count does not fit an int64 is refused, not wrapped.
func parseBytes(s string) (int64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 || v > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}
