package backend

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
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

	mu    sync.Mutex
	stats Stats
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
	mux := http.NewServeMux()
	mux.HandleFunc("/_lard/stats", s.handleStats)
	mux.HandleFunc("/", s.handleDoc)
	return mux
}

// Stats returns a snapshot of the node's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.CacheUsed = s.cache.Used()
	st.CacheLen = s.cache.Len()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	target := r.URL.Path
	size, ok := s.cfg.Store.Size(target)
	if !ok {
		s.mu.Lock()
		s.stats.Requests++
		s.stats.NotFound++
		s.mu.Unlock()
		http.NotFound(w, r)
		return
	}

	// Cache consultation mirrors the simulator's node: a hit serves from
	// memory; a miss pays the (scaled) disk read time, then caches.
	s.mu.Lock()
	s.stats.Requests++
	_, hit := s.cache.Lookup(target)
	if hit {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	s.mu.Unlock()

	if !hit {
		if s.cfg.DiskTimeScale > 0 {
			d := time.Duration(float64(s.cfg.Disk.DiskReadTime(size)) * s.cfg.DiskTimeScale)
			s.sleep(d)
		}
		s.mu.Lock()
		s.cache.Insert(target, size)
		s.mu.Unlock()
	}

	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	if hit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	if r.Method == http.MethodHead {
		return
	}
	n, err := io.Copy(w, ContentReader(target, size))
	s.mu.Lock()
	s.stats.BytesSent += n
	s.mu.Unlock()
	if err != nil {
		// The client went away mid-transfer; nothing further to do.
		return
	}
	if n != size {
		panic(fmt.Sprintf("backend: wrote %d of %d bytes for %s", n, size, target))
	}
}
