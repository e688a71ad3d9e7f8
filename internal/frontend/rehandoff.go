package frontend

import (
	"bufio"
	"errors"
	"io"
	"net"
	"syscall"
	"time"

	"lard/internal/handoff"
	"lard/internal/httprelay"
	"lard/pkg/lard"
)

// This file is the front end's one relay loop: every client connection —
// whatever its connection policy — runs through a lard.Session that owns
// the paper's Section 5 decision ("the protocol allows the front end ...
// to hand off a connection multiple times, so that different requests on
// the same connection can be served by different back ends"). The
// session consults the configured ConnPolicy per request: under "pin" it
// keeps returning the first back end (and the loop keeps reusing one
// back-end connection, the paper's whole-connection handoff), under
// "perreq" every request follows the strategy, and under "costaware"
// the session moves only when the locality regained is worth the switch.
// Because the decision is re-taken per request, a session whose back end
// drains, fails, or is removed moves on its next request under every
// policy — unless its first request passed the whole connection to a back
// end on this host (pass.go), after which the loop only waits for the back
// end to be done with it. A session on a back end on this host is split
// instead (pass.go): the loop reads, dispatches and moves every request as
// here, and the back end writes the responses to the client's socket.
//
// Back-end connections come from the per-node pool (pool.go): every
// handoff is a session-framed header (handoff.FlagSessionFramed) on a
// pooled transport when one is idle and on a fresh dial only on a pool
// miss, so the paper's ~300µs handoff budget is not spent on TCP
// establishment per handoff. A session that moves leaves its transport
// parked in the pool with the back end's half of the session open, and a
// move back to that node resumes it: multiple handoff costs a handoff
// message once per (connection, node), not once per move. attachBackend
// is the one way a request reaches a back end; four error paths in and
// around it keep back-end trouble away from the client:
//
//   - a failed dial re-dispatches the session to another eligible node
//     (bounded attempts, failed nodes excluded) before any 502 — a
//     single refused connection must not surface to the client while
//     healthy nodes exist;
//   - a pooled transport that died while idle (header write fails, or
//     the first response read returns nothing) is stale: retried once,
//     transparently, on a freshly dialed connection — but never when
//     part of the request body has already been relayed and cannot be
//     replayed;
//   - a back end that fails before any response byte reached the client,
//     with no retry left, costs the client a 502, never a bare close;
//   - the re-handoff counter moves only after the replacement handoff
//     succeeds, so failed moves show up as RehandoffFails, not as
//     re-handoffs the phttp figures would credit.
//
// Retaining HTTP framing is what makes multiple handoff — and pooling —
// possible: the front end must know where each request and each response
// ends, so the loop runs every message through internal/httprelay. The
// end of the session's last response is exactly the moment the back-end
// transport is back at a message boundary and can be checked into the
// pool.

// dialRedispatchLimit bounds how many alternate nodes a session tries
// after a failed back-end dial before giving up with a 502.
const dialRedispatchLimit = 2

// handoffFlags go on every handoff header the front end sends: the
// session may be handed off again, and the transport is session-framed so
// it survives the session for reuse.
const handoffFlags = handoff.FlagRehandoff | handoff.FlagSessionFramed

// backendConn is one session-framed transport to a back end, and the
// unit the idle pool stores: the connection, its buffered response reader
// (which must travel with the conn so no response bytes are lost across
// checkouts), the framing writer every request-direction byte goes
// through — it knows whether the last session is still open — and the
// state of the checkout liveness probe.
type backendConn struct {
	node int
	c    net.Conn
	br   *bufio.Reader
	sw   *handoff.SessionWriter

	// owner tags a transport parked in the pool: the client connection
	// that moved off it with this session open, and may come back to
	// resume it. Nil once anyone else has the transport or the session
	// has been ended.
	owner *lard.Session

	fromPool  bool      // checked out of the idle pool (stale-retry eligible)
	served    int       // complete responses relayed on this checkout
	clean     bool      // at a message boundary: eligible for pool check-in
	idleSince time.Time // when the pool took it in

	// split: the open session's header carried the client's socket, so
	// its responses may come as done records (pass.go). passed: the last
	// header passed the whole connection, whose done record is still due.
	split, passed bool

	// The probe: rc is the conn's raw descriptor (nil if it has none, or
	// the system no probe for it: probe_linux.go), probe the callback
	// rc.Read runs — built once, so a probe allocates nothing — and quiet
	// what it found.
	rc    syscall.RawConn
	probe func(fd uintptr) bool
	quiet bool
}

// newBackendConn wraps a freshly dialed connection: no session is open.
func newBackendConn(node int, c net.Conn) *backendConn {
	b := &backendConn{node: node, c: c, br: httprelay.GetReader(c), sw: handoff.NewTransportWriter(c)}
	if sc, ok := c.(syscall.Conn); ok {
		if b.probe = probeFunc(b); b.probe != nil {
			b.rc, _ = sc.SyscallConn()
		}
	}
	return b
}

// silent is the pool's checkout probe: whether the idle transport is
// alive and has nothing to say. Between sessions the back end owes no
// byte, so readable data, EOF and an error all make the transport
// unusable (the back end broke protocol, or hung up). The probe is one
// zero-timeout poll(2) on the descriptor the transport reads: a TCP
// socket, or a pass transport's answer pipe (on another Unix, where every
// transport is a socket, a recv(MSG_PEEK): probe_unix.go). A zero read
// deadline will not do on a real descriptor: the poller reports the
// expired deadline before it issues any read, so a peer's FIN from
// seconds ago would go unseen.
// Only a conn with no descriptor (a test's pipe or wrapper), or one on a
// system that is no Unix (probe_other.go), gets the deadline peek.
//
//lard:noalloc
func (b *backendConn) silent() bool {
	switch {
	case b.br.Buffered() > 0:
		return false
	case b.rc != nil:
		return b.rc.Read(b.probe) == nil && b.quiet
	}
	b.c.SetReadDeadline(time.Now())
	_, err := b.br.Peek(1)
	b.c.SetReadDeadline(time.Time{})
	return err != nil && isDeadlineErr(err)
}

// close closes the transport and recycles its reader. The caller must
// drop every reference to b (the relay loop nulls out `backend`).
func (b *backendConn) close() {
	b.c.Close()
	httprelay.PutReader(b.br)
	b.br = nil
}

// handleConn relays one client connection through its session.
func (s *Server) handleConn(client net.Conn) {
	cc := &clientConn{Conn: client, addr: client.RemoteAddr().String()}
	cc.tc, _ = client.(*net.TCPConn)
	defer cc.close()

	// Connection-accept quota gate: a client already over its rate is
	// shed before the front end reads a byte or opens a session. The
	// check is non-consuming — the per-request Allow below pays.
	// The address is formatted once per client connection: the quota key
	// is cut from it, and every handoff header carries it.
	quotaKey := clientQuotaKey(cc.addr)
	if ok, retry := s.ov.quota.Check(quotaKey, s.now()); !ok {
		s.shedQuota(client, retry)
		return
	}

	cc.sess = s.d.NewSession(s.policy)
	defer cc.sess.Close()
	s.m.sessions.Inc()
	s.m.activeSessions.Add(1)
	defer s.m.activeSessions.Add(-1)

	br := httprelay.GetReader(cc.in.open(cc))
	cc.br = br
	var (
		backend     *backendConn
		requestDone func()

		// Per-request state that lives with the connection and is reset,
		// not reallocated, for each request: the head (its Raw is the
		// connection's one scratch, see ReadRequestHeadInto), how far the
		// request body got, and whether the client was written to.
		head        httprelay.RequestHead
		bodySent    bool // nothing (more) of the body is owed to the back end
		bodyWritten bool // body bytes left for the back end: no replay elsewhere
		cw          = &writeTracker{w: client}
	)
	// sendBody forwards the request body, once; under Expect: 100-continue
	// it is the relay's on100 hook.
	sendBody := func() error {
		if bodySent {
			return nil
		}
		bodySent, bodyWritten = true, true
		n, err := httprelay.RelayRequestBody(backend.sw, br, head)
		s.m.bytesToBackend.Add(uint64(n))
		return err
	}
	// respond waits for the response to the request on backend, relayed
	// or written by the back end itself, and counts what the client got.
	respond := func(on100 func() error) (bool, error) {
		n, reusable, err := s.response(cw, backend, head.Method, on100)
		cc.sent += n
		s.m.bytesToClient.Add(uint64(n))
		return reusable, err
	}
	defer func() {
		if requestDone != nil {
			requestDone()
		}
		s.releaseBackend(backend, nil)
		// The loop is the reader's only user; once it returns the reader
		// can serve the next client connection.
		httprelay.PutReader(br)
	}()

	for {
		client.SetReadDeadline(time.Now().Add(s.cfg.headerTimeout))
		var err error
		head, err = httprelay.ReadRequestHeadInto(br, maxHeadBytes, head.Raw)
		if err != nil {
			s.headReadFailed(client, err, "reading request head")
			return
		}
		client.SetReadDeadline(time.Time{})
		if head.Close {
			// The client's close is for this hop: the loop honours it
			// (KeepAlive is false) and the back end never sees it, so its
			// transport survives the request. Raw is this connection's
			// own scratch, so the stay path and a stale-retry replay send
			// the same blanked bytes.
			httprelay.BlankConnectionClose(head.Raw)
			s.m.closeConsumed.Inc()
		}
		reqStart := s.now()

		// Per-request quota: each parsed head costs one token; an empty
		// bucket sheds the request (and, via Connection: close, the
		// connection) with a Retry-After computed from the deficit.
		if ok, retry := s.ov.quota.Allow(quotaKey, reqStart); !ok {
			s.shedQuota(client, retry)
			return
		}
		s.m.requests.Inc()

		// The session owns the pin/re-handoff decision and the
		// connection-slot accounting across moves; both a saturated
		// cluster (lard.ErrOverloaded) and a total outage
		// (lard.ErrUnavailable) surface to the client as 503.
		node, moved, done, err := cc.sess.Dispatch(reqStart,
			lard.Request{Target: head.Target, Size: head.Size()})
		if err != nil {
			s.m.shedOverload.Inc()
			writeServiceUnavailable(client)
			return
		}
		s.m.dispatches.Inc()
		requestDone = done

		// stale is why a kept-alive back-end connection must be replaced
		// mid-session, nil while it is healthy.
		var stale error
		if backend != nil && !moved {
			// Same back end: the next request rides the same handed-off
			// session under the fresh slot. A failed first write means the
			// back end silently dropped its keep-alive. Safe to retry for
			// any method — an errored write cannot have delivered a
			// complete, parseable request (a partial frame or truncated
			// head never executes) — so retry once on a fresh connection,
			// re-dispatching if the node itself is what died, instead of
			// killing the session.
			backend.clean = false
			_, stale = backend.sw.Write(head.Raw)
		}
		if backend == nil || moved || stale != nil {
			// First handoff, re-handoff, or stale retry. requestDone follows
			// a superseding claim (attachBackend). A session whose first
			// request lets its connection go for good, to a back end on this
			// host, is passed whole (pass.go) and holds its slot until the
			// back end is done with it.
			var ndone func()
			pass := backend == nil && s.passes && passable(&head)
			backend, ndone, err = s.attachBackend(cc, node, backend, stale, &head, pass)
			if err != nil {
				return
			}
			if ndone != nil {
				requestDone = ndone
			}
			if backend.passed {
				s.awaitPassed(backend)
				return
			}
		}

		// Forward the request body. Under Expect: 100-continue the
		// client withholds it until the back end's 100 arrives, so the
		// copy becomes the relay's on100 hook instead of running here.
		// bodyWritten tracks actual body bytes leaving for the back end:
		// once any have, the request can no longer be replayed on a
		// different connection.
		bodySent, bodyWritten, cw.wrote = !head.HasBody(), false, false
		var on100 func() error
		if head.ExpectContinue && !bodySent {
			on100 = sendBody
		} else if err := sendBody(); err != nil {
			s.m.errors.Inc()
			s.logf("frontend: relay request body: %v", err)
			return
		}

		// Relay the response(s), or, on a split session, learn that the
		// back end wrote them to the client itself. A relayed head travels
		// to the client verbatim, so the connection semantics the client
		// sees are the back end's. Whether anything reached the client
		// tells a back end that never answered (the failure was reading its
		// head or its done record) from a failure part way through a
		// response — retrying the latter would re-execute a request the
		// client has already been sent some of.
		reusable, err := respond(on100)
		if err != nil && !s.reached(cc, cw, backend) && backend.fromPool && backend.served == 0 &&
			!bodyWritten && idempotentMethod(head.Method) {
			// The pooled transport accepted the handoff but produced no
			// response — the keep-alive race: the back end closed while
			// the header was in flight. Nothing reached the client and no
			// body was consumed, so the request replays verbatim on a
			// fresh connection. Idempotent methods only: the header write
			// succeeded, so the back end may have executed the request
			// before dying — net/http's transport draws the same line.
			var ndone func()
			backend, ndone, err = s.attachBackend(cc, backend.node, backend, err, &head, false)
			if err != nil {
				return
			}
			if ndone != nil {
				requestDone = ndone
			}
			reusable, err = respond(on100)
		}
		if err != nil {
			s.m.errors.Inc()
			s.logf("frontend: relay response: %v", err)
			if !s.reached(cc, cw, backend) {
				// The back end hung up or sent a malformed head before any
				// byte reached the client (a fresh dial, a non-idempotent
				// method, or the second failure after a stale retry): a
				// clean 502, never a bare close.
				writeBadGateway(client)
			}
			return
		}
		// The request is complete: under a non-pinning policy this
		// releases the connection slot, so an idle keep-alive connection
		// holds no admission capacity between requests. requestDone, not
		// done: a dial-failure redispatch replaced the original claim
		// with the fallback node's, and that one must be released.
		requestDone()
		requestDone = nil
		backend.served++
		s.observeRequest(backend.node, s.now()-reqStart)
		// The transport is at a message boundary iff the response was
		// fully framed and keep-alive, and no Expect dance left request
		// body bytes undelivered.
		backend.clean = reusable && bodySent
		// Stop unless every party can continue: the request asked to keep
		// the connection, the back end's response says its side stays
		// open (relayed verbatim, the client saw the same signal), and no
		// Expect dance left a request body undelivered.
		if !head.KeepAlive || !reusable || !bodySent {
			return
		}
	}
}

// attachBackend is the one way a request reaches a back end: it retires
// old, delivers the request's handoff header to node — or, when node
// cannot take it, to an alternate the session re-dispatches to — and
// keeps the handoff accounting. On failure the client has been answered
// (502, or 503 + Retry-After when only breakers stood in the way) and
// the caller just returns. With pass set the connection goes to the node
// whole where it can (pass.go), and the transport comes back passed.
//
// old is the connection the session is leaving, nil on its first handoff.
// With stale nil it sits at a message boundary — the loop only continues
// past a complete reusable response — and goes back to the pool, parked
// for this session's return until another needs it. A non-nil stale is
// the error that showed old dead mid-session (dropped keep-alive, stale
// pooled transport): old is discarded and node — old's own — is dialed
// fresh rather than trusted to another idle transport that may have died
// with it.
//
// A refused dial or a breaker denial (a HalfOpen node's probe budget and
// a Recovering node's admission fraction meter new handoffs here) is not
// yet a client-visible error: the session is asked for the least-loaded
// eligible node outside tried, up to dialRedispatchLimit times. Each node
// tried costs one breaker admission, whichever way the handoff to it goes:
// a pass that cannot be made, or a pooled transport found stale, falls
// through to the next way under the admission already taken. Each
// admission reports one outcome to the breaker, a transport with the
// request on it (pooled or dialed) or none, so a HalfOpen node whose
// probes are served from the pool still closes its round. The returned
// done func is non-nil when a redispatch happened — the alternate's claim,
// which supersedes the one from the original Dispatch.
func (s *Server) attachBackend(cc *clientConn, node int, old *backendConn, stale error, head *httprelay.RequestHead, pass bool) (*backendConn, func(), error) {
	if stale != nil {
		s.logf("frontend: stale back-end conn to %d (%v), retrying fresh", old.node, stale)
		old.close()
		s.m.staleRetries.Inc()
	} else {
		// The client connection lives on: old is parked for it.
		s.releaseBackend(old, cc.sess)
	}
	var (
		tried []int  // nodes that refused this request
		done  func() // the alternate's claim, once re-dispatched
		err   error
	)
	for {
		if !s.breakerAllow(node) {
			err = errBreakerDenied
		} else if b, cerr := s.connectBackend(cc, node, head, stale != nil && len(tried) == 0, pass); cerr != nil {
			s.breakerFailure(node)
			err = cerr
		} else {
			s.breakerSuccess(node)
			if len(tried) > 0 {
				s.m.redispatches.Inc()
			}
			if old != nil && b.node != old.node {
				// Counted only now, after the replacement handoff or
				// resume succeeded — and only if the back end actually
				// changed: a failed move, or a redispatch that landed back
				// on the previous node, must not inflate the re-handoff
				// stats the phttp figures report.
				s.m.rehandoffs.Inc()
			}
			return b, done, nil
		}
		// This node is out. An alternate's claim is released right away
		// instead of being left to the next Redispatch, so the dead claim
		// stops consuming admission budget (lardlint: donecall).
		if done != nil {
			done()
		}
		if tried = append(tried, node); len(tried) > dialRedispatchLimit {
			break
		}
		var rerr error
		node, done, rerr = cc.sess.Redispatch(s.now(), lard.Request{Target: head.Target, Size: head.Size()}, tried)
		if rerr != nil {
			break // no alternate can take the request: surface the last failure
		}
	}
	if old != nil && stale == nil {
		s.m.rehandoffFails.Inc()
	}
	if errors.Is(err, errBreakerDenied) {
		// No candidate node's breaker would admit the handoff: the
		// cluster is recovering, not broken — shed with a retry hint
		// rather than a 502.
		s.m.shedBreaker.Inc()
		writeServiceUnavailable(cc.Conn)
	} else {
		s.m.errors.Inc()
		s.logf("frontend: handoff refused by back ends %v: %v", tried, err)
		writeBadGateway(cc.Conn)
	}
	return nil, nil, err
}

// connectBackend obtains a connection to node with this request on it:
// from the idle pool (with one transparent fall-through to a fresh dial
// if the pooled transport turns out stale), or straight from a dial when
// fresh is set. The dial keeps the mark-down accounting of dialBackend.
// Either way the request side is one Write. On the transport the session
// parked when it last left node, its session there still open, that is the
// request head in a data frame, exactly what a request that stays sends:
// the session resumes, and the back end sees the next request of a
// keep-alive connection. On any other transport it is a handoff
// (handoffTo): the end-of-session record a pooled transport still owes,
// the header, and the request head.
func (s *Server) connectBackend(cc *clientConn, node int, head *httprelay.RequestHead, fresh, pass bool) (*backendConn, error) {
	if !fresh {
		if b, ok := s.pool.get(node, cc.sess); ok {
			var err error
			if b.owner != nil {
				// Only the session's own parked transport comes back tagged.
				_, err = b.sw.Write(head.Raw)
			} else {
				err = s.handoffTo(b, cc, head, pass)
			}
			if err == nil {
				return b, nil
			}
			// Stale pooled transport: the write failed before anything
			// reached the client. Fall through to a fresh dial.
			s.logf("frontend: stale pooled conn to %d, dialing fresh", node)
			b.close()
			s.m.staleRetries.Inc()
		}
	}
	c, err := s.dialBackend(node)
	if err != nil {
		return nil, err
	}
	b := newBackendConn(node, c)
	if err := s.handoffTo(b, cc, head, pass); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// releaseBackend retires the relay loop's hold on a back-end connection.
// A clean transport goes back to the idle pool (unless its node can no
// longer take traffic) with its session still open: the end-of-session
// record is owed, and paid in the same write as the next handoff's
// header, or by the pool's sweep if none comes, or never if the transport
// is closed first — or not owed after all, if owner, the client
// connection that is moving away, returns and resumes the session (nil:
// the client connection is over). Anything else is closed and its reader
// recycled.
//
//lard:noalloc
func (s *Server) releaseBackend(b *backendConn, owner *lard.Session) {
	if b == nil {
		return
	}
	if b.clean && s.nodePoolable(b.node) {
		b.owner = owner
		s.pool.put(b)
		return
	}
	b.close()
}

// nodePoolable reports whether idle connections for node may enter the
// pool: a draining, down, or removed node must not keep warm transports
// that could hand it a session.
func (s *Server) nodePoolable(node int) bool {
	return s.d.NodeEligible(node)
}

// idempotentMethod reports whether a request with this method may be
// transparently replayed after the back end might already have executed
// it (RFC 7231 §4.2.2's safe/idempotent set as net/http's transport
// applies it to connection-reuse retries).
func idempotentMethod(m string) bool {
	switch m {
	case "GET", "HEAD", "OPTIONS", "TRACE":
		return true
	}
	return false
}

// writeTracker records whether any write to the client was attempted,
// which is what distinguishes "the back end never answered" (retryable
// on a pooled conn) from "the client went away mid-response" (not).
type writeTracker struct {
	w     io.Writer
	wrote bool
}

func (t *writeTracker) Write(p []byte) (int, error) {
	t.wrote = true
	return t.w.Write(p)
}

// ReadFrom keeps the tracker from hiding the client connection's
// io.ReaderFrom: with it, io.Copy on the response body reaches
// TCPConn.ReadFrom and the kernel splice path can engage.
func (t *writeTracker) ReadFrom(r io.Reader) (int64, error) {
	t.wrote = true
	if rf, ok := t.w.(io.ReaderFrom); ok {
		return rf.ReadFrom(r)
	}
	return io.Copy(t.w, r)
}
