package frontend

import (
	"bufio"
	"net"

	"lard/internal/handoff"
	"lard/internal/httprelay"
	"lard/pkg/lard"
)

// This file hands a connection over instead of its bytes. In the paper the
// back end answers the client directly and the front end pays per
// connection, not per byte. Where a back end's handoff.Listener shares the
// front end's host, the relay loop can do the same: it passes the client's
// socket to the back end (handoff.PassChannel), closes its own copy, and
// from then on no byte of that connection crosses the front end. A session
// is passed instead of relayed only when all of these hold:
//
//   - its policy never re-dispatches a session that stays eligible (pins),
//     so its first request's node is its node for good;
//   - no per-client quota is configured, which would need to see every
//     request;
//   - its first request keeps the connection open with nothing left to
//     read behind its head (RequestHead.KeepsOpen, the back end's loop's
//     own rule) and is a GET or a HEAD, a request the loop takes over;
//   - the client is a TCP connection, and what it has sent so far fits a
//     pass message;
//   - the node's address, as configured, names a pass address that
//     answers: the back end's own listener, on this host, of this user.
//
// Anything else is relayed as before. So is a request that closes its
// connection: a pass costs the back end a net.FileConn, a net/http
// connection and a Hijack, which one request does not earn back.
//
// Each pass dials its own channel and closes it once the connection ends:
// a dial is paid once per passed connection, not per request. A passed
// connection keeps its session, and so its node's slot, until the back end
// closes it and the channel's done record arrives, or the channel dies
// with the back end; the record's byte count is BackendToClient's. A pass
// counts as one Handoffs and one pool miss, as a relayed session's first
// handoff on a fresh transport does. Drain, mark-down and removal stop new
// passes to a node and move none it has: the connection is its back end's
// until it ends. The pass message carries HeaderTimeout, and the back end's
// loop bounds the connection's idle time between requests with it, as the
// relay loop would have.

// pins reports whether p never re-dispatches a session whose node can
// still take traffic: it holds the connection's slot between requests and
// reconsiders no request.
func pins(p lard.ConnPolicy) bool {
	return p.HoldBetweenRequests() && !p.Reconsider(0, 0, lard.Request{})
}

// passable reports whether a session's first request lets its connection
// be passed.
func passable(head *httprelay.RequestHead) bool {
	return head.KeepsOpen() && (head.Method == "GET" || head.Method == "HEAD")
}

// pass hands client, with head and whatever br holds behind it, to node by
// descriptor, and counts it. It returns the channel the connection went
// on, its client copy closed, or nil when it did not go: the caller then
// relays the request as before, nothing of it consumed.
func (s *Server) pass(node int, client net.Conn, br *bufio.Reader, head *httprelay.RequestHead, clientAddr string) *handoff.PassChannel {
	tc, ok := client.(*net.TCPConn)
	if !ok {
		return nil
	}
	pipelined, _ := br.Peek(br.Buffered())
	if len(head.Raw)+len(pipelined) > handoff.MaxPassData {
		return nil
	}
	ch, err := handoff.DialPass(s.backendAddr(node))
	if err != nil {
		return nil // no pass address: a back end elsewhere, or spelled otherwise
	}
	// head.Raw is the connection's own scratch and the connection is
	// leaving: the pipelined bytes can join the head there.
	if !s.breakerAllow(node) || ch.Pass(tc, clientAddr, append(head.Raw, pipelined...), s.cfg.HeaderTimeout) != nil {
		ch.Close()
		return nil
	}
	client.Close()
	s.m.handoffs.Inc()
	s.m.passed.Inc()
	s.pool.misses.Inc()
	return ch
}

// awaitPassed waits for the connection passed on ch to end, credits the
// bytes the back end wrote to it, and closes the channel.
func (s *Server) awaitPassed(ch *handoff.PassChannel) {
	n, _ := ch.Done()
	s.m.bytesToClient.Add(uint64(n))
	ch.Close()
}
