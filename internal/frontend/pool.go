package frontend

import (
	"errors"
	"net"
	"sync"
	"time"

	"lard/internal/metrics"
	"lard/pkg/lard"
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

// DefaultPoolSize is the per-node idle-connection bound. Every handoff is
// session-framed and rides the pool; there is no unpooled mode.
const DefaultPoolSize = 8

// DefaultPoolIdle is the idle TTL after which a pooled connection is
// discarded. It must stay well below the back end's
// handoff.DefaultSessionIdleTimeout so the front end's eviction, not the
// back end's safety net, ends an idle transport.
const DefaultPoolIdle = 30 * time.Second

// backendPool is a bounded per-node idle pool with TTL expiry. The pooled
// unit is the *backendConn itself (rehandoff.go): transport, reader,
// framing writer and probe state travel together, so a checkout allocates
// nothing.
//
// A transport checked in when its client connection moved to another node
// is parked: it stays tagged with that connection (backendConn.owner), its
// session open, and if the connection comes back before anyone else needs
// the transport, the session resumes where it stopped — no end-of-session
// record, no handoff header. Parked transports live in the same bounded
// list as the others; get's checkout order decides who gets which.
type backendPool struct {
	size  int
	ttl   time.Duration
	every time.Duration // the janitor's sweep interval

	mu     sync.Mutex
	idle   map[int][]*backendConn
	closed bool

	// Collectors in the front end's registry (atomic, not under mu);
	// Stats reads them as PoolHits/PoolMisses/SessionResumes/
	// PoolEvictions and SessionEndsSwept.
	hits      *metrics.Counter // checkouts served from the pool, for a handoff
	misses    *metrics.Counter // checkouts that found no live idle conn
	resumes   *metrics.Counter // checkouts of the caller's own parked transport
	evictions *metrics.Counter // conns discarded: capacity, TTL, death, or node eviction
	swept     *metrics.Counter // end-of-session records the sweep paid
}

func newBackendPool(size int, ttl time.Duration, reg *metrics.Registry) *backendPool {
	// Two sweeps per TTL. Without a TTL the sweep still runs, to end the
	// sessions idle transports owe.
	every := DefaultPoolIdle / 2
	if ttl > 0 {
		every = max(ttl/2, 10*time.Millisecond)
	}
	return &backendPool{
		size: size, ttl: ttl, every: every, idle: make(map[int][]*backendConn),
		hits:      reg.Counter("lard_fe_pool_checkouts_total", "back-end connection pool checkouts, by result", "result", "hit"),
		misses:    reg.Counter("lard_fe_pool_checkouts_total", "", "result", "miss"),
		resumes:   reg.Counter("lard_fe_session_resumes_total", "moves back to a node that found the session parked there and resumed it: no handoff header sent"),
		evictions: reg.Counter("lard_fe_pool_evictions_total", "pooled connections discarded: capacity, TTL, death, or node eviction"),
		swept:     reg.Counter("lard_fe_session_ends_total", "end-of-session records sent, by how: in the next handoff header's write, or by the idle pool's sweep", "how", "swept"),
	}
}

// get checks out an idle connection for node on behalf of the client
// connection owner, discarding expired or dead ones (backendConn.silent
// is the liveness probe every pooled transport gets). The order:
//
//  1. owner's own parked transport. It comes back with b.owner == owner:
//     the session on it is owner's, still open, and the caller resumes it.
//  2. the most recently used untagged one (LIFO: the least likely to have
//     been idle-closed by the back end).
//  3. the oldest parked one. Its owner has been away longest and is the
//     least likely to come back for it.
//
// From 2 and 3 the transport comes back untagged, owing the next handoff
// header an end-of-session record if its session is open.
//
// Counter contract: every checkout is exactly one resume (step 1), one
// hit (steps 2 and 3) or one miss, so hits+misses is the number of
// checkouts a handoff header follows. The miss is recorded here, once per
// get that returns no conn — not in pop — so a checkout that pops only
// expired/dead conns (each recorded as an eviction) still counts as the
// miss it is.
//
//lard:noalloc
func (p *backendPool) get(node int, owner *lard.Session) (*backendConn, bool) {
	for {
		b := p.pop(node, owner)
		if b == nil {
			p.misses.Inc()
			return nil, false
		}
		if p.ttl > 0 && time.Since(b.idleSince) > p.ttl || !b.silent() {
			p.discard(b)
			continue
		}
		if b.owner != nil {
			p.resumes.Inc()
		} else {
			p.hits.Inc()
		}
		b.fromPool, b.served, b.clean = true, 0, false
		return b, true
	}
}

// pop takes get's pick out of node's idle list, which is in check-in
// order, oldest first.
func (p *backendPool) pop(node int, owner *lard.Session) *backendConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.idle[node]
	own, untagged, parked := -1, -1, -1
	for i, b := range conns {
		switch {
		case b.owner == nil:
			untagged = i
		case b.owner == owner:
			own = i
		case parked < 0:
			parked = i
		}
	}
	pick := own
	if pick < 0 {
		pick = untagged
	}
	if pick < 0 {
		pick = parked
	}
	if pick < 0 {
		return nil
	}
	b := conns[pick]
	if pick != own {
		b.owner = nil
	}
	n := pick + copy(conns[pick:], conns[pick+1:])
	// Nil the vacated slot: a truncating reslice alone keeps the conn and
	// its 16 KiB reader reachable through the underlying array.
	conns[n] = nil
	p.idle[node] = conns[:n]
	return b
}

// discard retires a dead, expired or surplus pooled entry.
func (p *backendPool) discard(b *backendConn) {
	b.close()
	p.evictions.Inc()
}

// put checks a clean transport (response fully read; its session possibly
// still open, see sweep) back in, idle from now.
func (p *backendPool) put(b *backendConn) {
	b.idleSince = time.Now()
	p.checkIn(b)
}

// checkIn enters b into its node's idle list. Beyond the per-node bound
// the oldest idle conn is evicted, parked or not — LIFO reuse means the
// oldest is the most likely to die next anyway.
func (p *backendPool) checkIn(b *backendConn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		b.close()
		return
	}
	conns := p.idle[b.node]
	var evict *backendConn
	if len(conns) >= p.size {
		evict = conns[0]
		n := copy(conns, conns[1:])
		// The shift leaves a duplicate of the newest entry in the tail
		// slot; nil it so the reslice does not retain it.
		conns[n] = nil
		conns = conns[:n]
	}
	p.idle[b.node] = append(conns, b)
	p.mu.Unlock()
	if evict != nil {
		p.discard(evict)
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
	for _, b := range conns {
		p.discard(b)
	}
}

// sweep is the janitor's pass over the idle pool, so that the pool
// settles with no traffic arriving. A transport past the TTL is
// discarded. A transport that has sat idle for a full sweep interval with
// its session still open — parked or not — is sent the end-of-session
// record that no next handoff came to carry, and kept, untagged: the back
// end's handler sees EOF by the first sweep that finds it a full interval
// idle, less than two intervals after its client left — with a TTL, one
// sweep before the one that would close the transport. The record is
// written outside the lock, with the transport out of the pool.
func (p *backendPool) sweep() {
	now := time.Now()
	var dead, owing []*backendConn
	p.mu.Lock()
	for node, conns := range p.idle {
		kept := conns[:0]
		for _, b := range conns {
			switch idle := now.Sub(b.idleSince); {
			case p.ttl > 0 && idle > p.ttl:
				dead = append(dead, b)
			case idle >= p.every && b.sw.InSession():
				owing = append(owing, b)
			default:
				kept = append(kept, b)
			}
		}
		// The dropped entries stay reachable through the shared array
		// until the tail is cleared.
		clear(conns[len(kept):])
		p.idle[node] = kept
	}
	p.mu.Unlock()
	for _, b := range dead {
		p.discard(b)
	}
	for _, b := range owing {
		if err := b.sw.End(); err != nil {
			p.discard(b)
			continue
		}
		p.swept.Inc()
		b.owner = nil // nothing left to resume
		p.checkIn(b)
	}
}

// closeAll shuts the pool down; subsequent puts close their conns.
func (p *backendPool) closeAll() {
	p.mu.Lock()
	p.closed = true
	all := p.idle
	p.idle = make(map[int][]*backendConn)
	p.mu.Unlock()
	for _, conns := range all {
		for _, b := range conns {
			b.close()
		}
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

// janitor sweeps the idle pool until stop closes.
func (p *backendPool) janitor(stop <-chan struct{}) {
	t := time.NewTicker(p.every)
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
// the deadline peek. It unwraps: an instrumented or test conn that wraps
// the deadline error must still read as "alive and silent", not as a
// dead transport to evict.
func isDeadlineErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
