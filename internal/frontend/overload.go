package frontend

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"lard/internal/breaker"
	"lard/internal/metrics"
	"lard/internal/quota"
)

// This file is the front end's overload-protection layer: per-back-end
// circuit breakers, per-client quotas, and the metrics that prove both
// are working.
//
// The breaker (internal/breaker) layers *under* the mark-down/prober
// machinery in health.go. Mark-down is the oracle path — N consecutive
// dial failures take the node out of rotation, a probe dial restores
// it. The breaker watches the outcome of every handoff it admits (a
// transport with the request on it, pooled or dialed, or none) and of
// every probe dial, and adds what mark-down lacks: exponential backoff
// between probe rounds, and a graduated recovery that ramps *handoffs*
// back onto a restored node instead of slamming it with its full LARD
// target set. Two hooks connect it to the dispatch path:
//
//   - lard.Dispatcher.SetNodeGate(breakers.Healthy): an Open breaker
//     makes its node ineligible exactly like a Down flag — sessions
//     move off it, Redispatch avoids it, the pool refuses its idle
//     connections at check-in — without touching the strategy's
//     target→node mapping, so traffic snaps back on recovery;
//   - breakerAllow (breakers.Allow) runs before every handoff, pooled
//     or dialed (attachBackend), and consumes the HalfOpen probe budget
//     or a Recovering admission slot; the handoff's outcome is reported
//     back (breakerSuccess/breakerFailure), one per admission. Requests
//     that stay on their session's back end are not thinned: the ramp
//     meters handoffs, which is where a cold recovering node gets hurt.
//
// The quota (internal/quota) is enforced twice: a non-consuming Check
// at connection accept (an over-quota client is shed before the front
// end reads a single byte) and a consuming Allow per request in the
// relay loop. Shed responses are 429s carrying Retry-After computed
// from the client's token deficit, on a closing connection.
//
// Everything observable lands in the server's metrics.Registry
// (metrics.go; Prometheus text format via cmd/lardfe's GET
// /admin/metrics): request/goodput/shed counters, breaker transitions and
// denials, and log-bucketed latency histograms per connection policy and
// per node.

// errBreakerDenied is the establishment failure when the chosen node's
// breaker refused the admission (and no alternate worked out); it is
// surfaced to the client as a 503 + Retry-After, not a 502.
var errBreakerDenied = errors.New("frontend: back-end admission denied by circuit breaker")

// overload is the Server's overload-protection state.
type overload struct {
	breakers *breaker.Set   // nil = breaker disabled
	quota    *quota.Limiter // non-nil; Rate <= 0 disables
}

// now is the front end's clock for the breaker and quota subsystems:
// time since server start, the same form the virtual-clock packages use
// in simulation.
func (s *Server) now() time.Duration { return time.Since(s.start) }

// Metrics returns the server's metrics registry (for GET /admin/metrics).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Breakers returns the per-back-end circuit breakers, or nil when the
// breaker layer is disabled.
func (s *Server) Breakers() *breaker.Set { return s.ov.breakers }

// initOverload builds the overload-protection state. Called from New
// after the dispatcher exists; the breaker gate is installed onto it
// here.
func (s *Server) initOverload() {
	s.ov.quota = quota.New(quota.Config{
		Rate:  s.cfg.QuotaRate,
		Burst: s.cfg.quotaBurst,
	})

	if s.cfg.Breaker != nil {
		bcfg := *s.cfg.Breaker
		bcfg.OnTransition = func(node int, from, to breaker.State, now time.Duration) {
			// Called with the breaker Set's mutex held: the registry and
			// the pool are both leaf locks that never call back into the
			// breaker, so this cannot cycle.
			s.breakerTransitions(node, to).Inc()
			if to == breaker.Open {
				s.pool.evictNode(node)
			}
		}
		s.ov.breakers = breaker.New(bcfg)
		s.d.SetNodeGate(func(node int) bool {
			return s.ov.breakers.Healthy(node, s.now())
		})
	}
}

// observeRequest records one completed request: goodput counter plus
// the per-policy and per-node latency histograms. It runs once per
// relayed response on the hot path.
//
//lard:noalloc
func (s *Server) observeRequest(node int, d time.Duration) {
	s.m.served.Inc()
	s.m.latency.Observe(d)
	if b := s.backend(node); b != nil {
		b.hist.Observe(d)
	}
}

// breakerAllow consumes one breaker admission for node; true when the
// breaker layer is off or the node's breaker admits the connection.
func (s *Server) breakerAllow(node int) bool {
	if s.ov.breakers == nil {
		return true
	}
	if s.ov.breakers.Allow(node, s.now()) {
		return true
	}
	s.m.breakerDenials.Inc()
	return false
}

// breakerSuccess/breakerFailure feed outcomes into the node's breaker:
// one per admitted handoff (attachBackend) and one per probe dial
// (health.go).
func (s *Server) breakerSuccess(node int) {
	if s.ov.breakers != nil {
		s.ov.breakers.Success(node, s.now())
	}
}

func (s *Server) breakerFailure(node int) {
	if s.ov.breakers != nil {
		s.ov.breakers.Failure(node, s.now())
	}
}

// clientQuotaKey is the per-client identity the quota buckets key on:
// the IP of the connection's remote address (without port, so every
// connection from one host shares a bucket).
func clientQuotaKey(addr string) string {
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}

// shedQuota counts one quota shed and answers the client with a closing
// 429 + Retry-After. The accept-time shed writes its response before the
// client's request has been read (often before it has even been sent),
// so the close must linger: closing with unread data in the receive
// queue resets the connection, which can destroy the 429 before the
// client reads it. The drain is bounded in both bytes and time, so an
// abusive client streaming a body cannot hold the goroutine.
func (s *Server) shedQuota(client net.Conn, retry time.Duration) {
	s.m.shedQuota.Inc()
	writeTooManyRequests(client, retry)
	client.SetReadDeadline(time.Now().Add(shedLinger))
	io.CopyN(io.Discard, client, 8<<10)
}

// shedLinger bounds the post-429 drain of a shed connection.
const shedLinger = 50 * time.Millisecond

// retryAfterSeconds renders a Retry-After duration as whole seconds,
// rounded up so the client never retries early (minimum 1).
func retryAfterSeconds(retry time.Duration) int {
	secs := int((retry + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeTooManyRequests(c net.Conn, retry time.Duration) {
	const body = "client over rate quota\n"
	fmt.Fprintf(c, "HTTP/1.1 429 Too Many Requests\r\nContent-Length: %d\r\nRetry-After: %d\r\nConnection: close\r\n\r\n%s",
		len(body), retryAfterSeconds(retry), body)
}
