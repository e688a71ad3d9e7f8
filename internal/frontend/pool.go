package frontend

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"lard/internal/httprelay"
	"lard/internal/metrics"
)

// This file is the front end's per-back-end connection pool. The paper's
// efficiency argument (Section 5) budgets a few hundred microseconds per
// connection handoff; a fresh TCP dial per handoff — and per *re-handoff*
// — spends that budget on connection establishment instead of handoff
// processing. With the session-sequenced handoff protocol
// (internal/handoff, FlagSessionFramed) one back-end connection carries a
// sequence of client sessions, so when a session ends (or re-handoffs
// away) the connection is checked back into a bounded per-node idle pool
// and the next handoff to that node reuses it: the dial is paid once per
// pool fill, not once per handoff.

// DefaultPoolSize is the per-node idle-connection bound used when
// Config.PoolSize is zero.
const DefaultPoolSize = 8

// DefaultPoolIdle is the idle TTL after which a pooled connection is
// discarded, used when Config.PoolIdle is zero. It must stay well below
// the back end's handoff.DefaultSessionIdleTimeout so the front end's
// eviction, not the back end's safety net, ends an idle transport.
const DefaultPoolIdle = 30 * time.Second

// pooledConn is one idle back-end transport: the connection, its buffered
// response reader (which must travel with the conn so no response bytes
// are lost across checkouts), and when it went idle.
type pooledConn struct {
	c     net.Conn
	br    *bufio.Reader
	since time.Time
}

// backendPool is a bounded per-node idle pool with TTL expiry. Checkouts
// are LIFO — the most recently used connection is the least likely to
// have been idle-closed by the back end.
type backendPool struct {
	size int
	ttl  time.Duration

	mu     sync.Mutex
	idle   map[int][]pooledConn
	closed bool

	// Collectors in the front end's registry (atomic, not under mu);
	// Stats reads them as PoolHits/PoolMisses/PoolEvictions.
	hits      *metrics.Counter // checkouts served from the pool
	misses    *metrics.Counter // checkouts that found no live idle conn
	evictions *metrics.Counter // conns discarded: capacity, TTL, death, or node eviction
}

func newBackendPool(size int, ttl time.Duration, reg *metrics.Registry) *backendPool {
	return &backendPool{
		size: size, ttl: ttl, idle: make(map[int][]pooledConn),
		hits:      reg.Counter("lard_fe_pool_checkouts_total", "back-end connection pool checkouts, by result", "result", "hit"),
		misses:    reg.Counter("lard_fe_pool_checkouts_total", "", "result", "miss"),
		evictions: reg.Counter("lard_fe_pool_evictions_total", "pooled connections discarded: capacity, TTL, death, or node eviction"),
	}
}

// get checks out an idle connection for node, discarding expired or dead
// ones. The liveness probe is a zero-deadline peek: an idle transport
// should have nothing to say, so readable data or EOF both mean the
// connection is unusable (the back end hung up, or broke protocol).
//
// Counter contract: every checkout is exactly one hit or one miss. The
// miss is recorded here, once per get that returns no conn — not in pop —
// so a checkout that pops only expired/dead conns (each recorded as an
// eviction) still counts as the miss it is, and hits+misses always equals
// checkouts in Stats.
func (p *backendPool) get(node int) (net.Conn, *bufio.Reader, bool) {
	for {
		pc, ok := p.pop(node)
		if !ok {
			p.misses.Inc()
			return nil, nil, false
		}
		if p.ttl > 0 && time.Since(pc.since) > p.ttl {
			p.discard(pc)
			continue
		}
		if pc.br.Buffered() == 0 {
			pc.c.SetReadDeadline(time.Now())
			_, err := pc.br.Peek(1)
			pc.c.SetReadDeadline(time.Time{})
			if err == nil || !isDeadlineErr(err) {
				// Data or EOF where silence was required: dead or dirty.
				p.discard(pc)
				continue
			}
		} else {
			// Buffered bytes between sessions are a protocol violation.
			p.discard(pc)
			continue
		}
		p.hits.Inc()
		return pc.c, pc.br, true
	}
}

func (p *backendPool) pop(node int) (pooledConn, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.idle[node]
	if len(conns) == 0 {
		return pooledConn{}, false
	}
	pc := conns[len(conns)-1]
	// Zero the vacated slot: the entry holds a conn and a 16 KiB reader,
	// and a truncating reslice alone keeps both reachable through the
	// underlying array.
	conns[len(conns)-1] = pooledConn{}
	p.idle[node] = conns[:len(conns)-1]
	return pc, true
}

// discard retires a dead or expired pooled entry: close the transport,
// recycle its reader, count the eviction.
func (p *backendPool) discard(pc pooledConn) {
	pc.c.Close()
	httprelay.PutReader(pc.br)
	p.evictions.Inc()
}

// put checks a clean (end-of-session sent, response fully read) transport
// back in. Beyond the per-node bound the oldest idle conn is evicted —
// LIFO reuse means the oldest is the most likely to die next anyway.
func (p *backendPool) put(node int, c net.Conn, br *bufio.Reader) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		httprelay.PutReader(br)
		return
	}
	conns := p.idle[node]
	var evict pooledConn
	if len(conns) >= p.size {
		evict = conns[0]
		n := copy(conns, conns[1:])
		// The shift leaves a duplicate of the newest entry in the tail
		// slot; zero it so the reslice does not retain it.
		conns[n] = pooledConn{}
		conns = conns[:n]
		p.evictions.Inc()
	}
	p.idle[node] = append(conns, pooledConn{c: c, br: br, since: time.Now()})
	p.mu.Unlock()
	if evict.c != nil {
		evict.c.Close()
		httprelay.PutReader(evict.br)
	}
}

// evictNode discards every idle connection to node — called on drain,
// removal, and mark-down, so no session can be handed to a gone node
// through the pool.
func (p *backendPool) evictNode(node int) {
	p.mu.Lock()
	conns := p.idle[node]
	delete(p.idle, node)
	p.mu.Unlock()
	p.evictions.Add(uint64(len(conns)))
	for _, pc := range conns {
		pc.c.Close()
		httprelay.PutReader(pc.br)
	}
}

// sweep discards idle connections past the TTL; the janitor calls it so
// an idle pool drains even with no traffic arriving.
func (p *backendPool) sweep() {
	if p.ttl <= 0 {
		return
	}
	cutoff := time.Now().Add(-p.ttl)
	var dead []pooledConn
	p.mu.Lock()
	for node, conns := range p.idle {
		kept := conns[:0]
		for _, pc := range conns {
			if pc.since.Before(cutoff) {
				dead = append(dead, pc)
				p.evictions.Inc()
			} else {
				kept = append(kept, pc)
			}
		}
		// The compaction dropped len(conns)-len(kept) entries but their
		// conns and 16 KiB readers stay reachable through the shared
		// array until the tail is zeroed.
		for i := len(kept); i < len(conns); i++ {
			conns[i] = pooledConn{}
		}
		p.idle[node] = kept
	}
	p.mu.Unlock()
	for _, pc := range dead {
		pc.c.Close()
		httprelay.PutReader(pc.br)
	}
}

// closeAll shuts the pool down; subsequent puts close their conns.
func (p *backendPool) closeAll() {
	p.mu.Lock()
	p.closed = true
	var all []pooledConn
	for _, conns := range p.idle {
		all = append(all, conns...)
	}
	p.idle = make(map[int][]pooledConn)
	p.mu.Unlock()
	for _, pc := range all {
		pc.c.Close()
		httprelay.PutReader(pc.br)
	}
}

// idleCount returns the number of idle connections, total and for node
// (node < 0 skips the per-node count).
func (p *backendPool) idleCount(node int) (total, forNode int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for n, conns := range p.idle {
		total += len(conns)
		if n == node {
			forNode = len(conns)
		}
	}
	return total, forNode
}

// janitor sweeps expired idle connections until stop closes.
func (p *backendPool) janitor(stop <-chan struct{}) {
	if p.ttl <= 0 {
		return
	}
	interval := p.ttl / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			p.sweep()
		}
	}
}

// isDeadlineErr reports a read-deadline expiry — the healthy outcome of
// the liveness peek. It unwraps: an instrumented or test conn that wraps
// the deadline error must still read as "alive and silent", not as a
// dead transport to evict.
func isDeadlineErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
