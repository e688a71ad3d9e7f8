package frontend

import (
	"strconv"

	"lard/internal/breaker"
	"lard/internal/metrics"
)

// feMetrics holds the front end's event collectors, created once in New
// so the hot path only ever touches pre-allocated atomics. Each event has
// exactly one collector: Stats and GET /admin/metrics read the same
// number. (The pool's checkout, resume, eviction and sweep counters live
// with the pool, in the same registry; breaker transitions are labelled
// per node and looked up on the rare transition, see breakerTransitions.)
// What each one counts is its help string below.
type feMetrics struct {
	accepted       *metrics.Counter
	sessions       *metrics.Counter
	requests       *metrics.Counter
	dispatches     *metrics.Counter
	served         *metrics.Counter
	activeSessions *metrics.Gauge

	handoffs       *metrics.Counter
	passed         *metrics.Counter
	direct         *metrics.Counter
	rehandoffs     *metrics.Counter
	rehandoffFails *metrics.Counter
	redispatches   *metrics.Counter
	staleRetries   *metrics.Counter
	errors         *metrics.Counter
	endsWithHeader *metrics.Counter
	closeConsumed  *metrics.Counter

	shedQuota      *metrics.Counter
	shedOverload   *metrics.Counter
	shedBreaker    *metrics.Counter
	breakerDenials *metrics.Counter

	markdowns       *metrics.Counter
	probes          *metrics.Counter
	probeRecoveries *metrics.Counter

	bytesToBackend *metrics.Counter
	bytesToClient  *metrics.Counter

	latency *metrics.Histogram
}

func newFEMetrics(reg *metrics.Registry, policyName string) feMetrics {
	return feMetrics{
		accepted:       reg.Counter("lard_fe_accepted_total", "client connections accepted"),
		sessions:       reg.Counter("lard_fe_sessions_total", "client sessions opened, by connection policy", "policy", policyName),
		activeSessions: reg.Gauge("lard_fe_active_sessions", "client sessions open right now"),
		requests:       reg.Counter("lard_fe_requests_total", "request heads parsed and offered to the dispatcher"),
		dispatches:     reg.Counter("lard_fe_dispatches_total", "dispatch decisions taken (one per admitted request)"),
		served:         reg.Counter("lard_fe_responses_total", "complete responses relayed to clients (goodput)"),

		handoffs:       reg.Counter("lard_fe_handoffs_total", "handoff headers delivered to a back end"),
		passed:         reg.Counter("lard_fe_passed_total", "client connections passed to their back end by descriptor (each also a handoff): their later requests never reach the front end"),
		direct:         reg.Counter("lard_fe_direct_total", "responses a back end wrote to the client's own socket, on split sessions and passed connections: none of their bytes crossed the front end"),
		rehandoffs:     reg.Counter("lard_fe_rehandoffs_total", "requests that moved a session to a different back end, by handoff or by resume"),
		rehandoffFails: reg.Counter("lard_fe_rehandoff_fails_total", "session moves no back end could be established for"),
		redispatches:   reg.Counter("lard_fe_redispatches_total", "failed dials or breaker denials recovered on another node"),
		staleRetries:   reg.Counter("lard_fe_stale_retries_total", "reused back-end transports found dead and retried fresh"),
		errors:         reg.Counter("lard_fe_errors_total", "connection-level errors"),
		endsWithHeader: reg.Counter("lard_fe_session_ends_total", "", "how", "with_header"),
		closeConsumed:  reg.Counter("lard_fe_close_consumed_total", "request heads whose Connection: close was honoured here and blanked for the back end"),

		shedQuota:      reg.Counter("lard_fe_sheds_total", "requests shed, by reason", "reason", "quota"),
		shedOverload:   reg.Counter("lard_fe_sheds_total", "", "reason", "overload"),
		shedBreaker:    reg.Counter("lard_fe_sheds_total", "", "reason", "breaker"),
		breakerDenials: reg.Counter("lard_fe_breaker_denials_total", "breaker Allow refusals (most are detoured to another node)"),

		markdowns:       reg.Counter("lard_fe_markdowns_total", "back ends marked down after consecutive dial failures"),
		probes:          reg.Counter("lard_fe_probes_total", "health-probe dials issued to down back ends"),
		probeRecoveries: reg.Counter("lard_fe_probe_recoveries_total", "back ends restored by a successful probe"),

		bytesToBackend: reg.Counter("lard_fe_relay_bytes_total", "body bytes relayed, by direction", "dir", "to_backend"),
		bytesToClient:  reg.Counter("lard_fe_relay_bytes_total", "", "dir", "to_client"),

		latency: reg.Histogram("lard_fe_request_seconds", "request latency from head parsed to response relayed", "policy", policyName),
	}
}

// breakerTransitions returns the counter of node's breaker transitions
// into state to. The OnTransition hook increments it; Stats sums the
// to="open" series into BreakerTrips, so a trip is counted once.
func (s *Server) breakerTransitions(node int, to breaker.State) *metrics.Counter {
	return s.reg.Counter("lard_fe_breaker_transitions_total",
		"breaker state transitions", "node", strconv.Itoa(node), "to", to.String())
}
