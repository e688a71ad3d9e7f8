package backend

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lard/internal/cache"
	"lard/internal/cluster"
)

// Config describes one prototype back end.
type Config struct {
	// Store is the document database served by this node.
	Store *DocStore

	// CacheBytes is the in-memory cache capacity (default 32 MB, the
	// paper's simulated node cache; the paper's real back ends observed
	// "file cache sizes between 42 and 46 MB" under FreeBSD).
	CacheBytes int64

	// UseLRU selects the LRU policy instead of GDS-Frequency.
	UseLRU bool

	// Disk is the cost model used to emulate disk reads on cache misses
	// (default: the paper's 28 ms + 410 µs/4 KB model).
	Disk cluster.CostModel

	// DiskTimeScale scales the emulated disk delay (1.0 = full 28 ms
	// seeks; tests use small values to stay fast; 0 disables the delay).
	DiskTimeScale float64

	// Sleep replaces time.Sleep, for tests (nil = time.Sleep).
	Sleep func(time.Duration)
}

// Stats reports a back end's activity, exposed on /_lard/stats.
type Stats struct {
	Requests  uint64 `json:"requests"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	NotFound  uint64 `json:"not_found"`
	BytesSent int64  `json:"bytes_sent"`
	CacheUsed int64  `json:"cache_used"`
	CacheLen  int    `json:"cache_len"`
}

// Server is the prototype back-end node: an http.Handler serving the
// document store through a main-memory cache with emulated disk misses.
// It is safe for concurrent use.
type Server struct {
	cfg   Config
	cache cache.Cache
	sleep func(time.Duration)

	bytesSent atomic.Int64

	mu    sync.Mutex
	stats Stats // but for BytesSent
}

// New builds a back-end server. It panics if cfg.Store is nil.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("backend: Config.Store is nil")
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = cluster.DefaultCacheBytes
	}
	if cfg.Disk == (cluster.CostModel{}) {
		cfg.Disk = cluster.DefaultCostModel()
	}
	if cfg.DiskTimeScale < 0 {
		cfg.DiskTimeScale = 0
	}
	var c cache.Cache
	if cfg.UseLRU {
		c = cache.NewLRUWithCutoff(cfg.CacheBytes, cluster.DefaultLRUCutoff)
	} else {
		// The paper's GDS, counting hits: with documents of similar size
		// plain GDS(1) is LRU and forgets how often each was asked for.
		c = cache.NewGDSF(cfg.CacheBytes)
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	return &Server{cfg: cfg, cache: c, sleep: sleep}
}

// Handler returns the node's HTTP handler: documents at their target
// paths, plus GET /_lard/stats for scraping.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/_lard/stats" {
			s.handleStats(w, r)
			return
		}
		s.handleDoc(w, r)
	})
}

// HTTPServer returns the net/http server a node is served with, over a
// handoff.Listener. The listener's HandshakeTimeout ends where a handoff
// header does; from there a session's bytes are under this server's
// timeouts, and without one a peer that sends half a request head holds a
// goroutine and a transport for ever. A head has five seconds from its
// first byte (the front end sends heads whole, so only a broken or hostile
// peer is ever timed). There is no IdleTimeout on purpose: the front end
// parks open sessions in its pool and ends them itself.
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
}

// Stats returns a snapshot of the node's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.BytesSent = s.bytesSent.Load()
	st.CacheUsed = s.cache.Used()
	st.CacheLen = s.cache.Len()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// Header values every response shares; like document.contentLength they are
// never written to.
var octetStream, cacheHit, cacheMiss = []string{"application/octet-stream"}, []string{"HIT"}, []string{"MISS"}

func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	target := r.URL.Path
	doc, ok := s.cfg.Store.lookup(target)

	// Cache consultation mirrors the simulator's node: a hit serves from
	// memory; a miss pays the (scaled) disk read time, then caches.
	hit := false
	s.mu.Lock()
	s.stats.Requests++
	if !ok {
		s.stats.NotFound++
	} else if _, hit = s.cache.Lookup(target); hit {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	s.mu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return
	}

	h := w.Header()
	h["Content-Length"], h["Content-Type"], h["X-Cache"] = doc.contentLength, octetStream, cacheHit
	if !hit {
		if s.cfg.DiskTimeScale > 0 {
			d := time.Duration(float64(s.cfg.Disk.DiskReadTime(doc.size)) * s.cfg.DiskTimeScale)
			s.sleep(d)
		}
		s.mu.Lock()
		s.cache.Insert(target, doc.size)
		s.mu.Unlock()
		h["X-Cache"] = cacheMiss
	}
	if r.Method == http.MethodHead {
		return
	}
	n, err := doc.writeTo(w)
	s.bytesSent.Add(n)
	if err != nil {
		// The client went away mid-transfer; nothing further to do.
		return
	}
	if n != doc.size {
		panic(fmt.Sprintf("backend: wrote %d of %d bytes for %s", n, doc.size, target))
	}
}
