package frontend

import (
	"bufio"
	"net"
	"syscall"

	"lard/internal/handoff"
	"lard/internal/httprelay"
	"lard/pkg/lard"
)

// This file hands the client's socket over instead of relaying its bytes.
// In the paper the back end answers the client directly: the front end
// pays per request for the incoming side, not per byte for the responses.
// Where a back end's handoff.Listener shares the front end's host, its
// node's transports are pass transports (handoff.DialPass; dialBackend
// tries one first), and a handoff header can carry the client's socket.
// Two ways use it:
//
//   - A split session, wherever a new session opens on a pass transport:
//     the header carries the socket, once per (connection, node), even for
//     a request that closes the connection. The relay loop goes on exactly as before — it reads every
//     request head, checks the quota, dispatches, moves, parks and resumes
//     sessions, sends each head in a data frame — but a back end that
//     answers directly writes the response to the client's socket and
//     sends a done record instead, which the loop reads where it would
//     have relayed a response (response). A back end that does not answer
//     directly is relayed as before. A drain moves a split session on its
//     next request, like any other.
//   - A pass of the whole connection (passable): under a policy that pins,
//     with no per-client quota, a keep-alive connection whose first
//     request is a plain GET or HEAD goes to its back end for good, with
//     everything read from it, and the front end closes its copy. The
//     session holds its slot until the back end closes the connection and
//     the done record arrives, whose counts go to BackendToClient and
//     Direct; the transport then goes back to the pool. Drain, mark-down
//     and removal stop new passes to a node and move none it has. The pass
//     carries the head timeout (30 s), which the back end's loop bounds the
//     idle time between requests with, as the relay loop would have.
//
// Anything else is relayed as before: a client that is not a TCP
// connection, a back end on another host, or one addressed by another
// spelling of its address than its listener's own.
//
// Three rules keep a split session's failures the relay's. A back end that
// holds a copy of the socket keeps the connection open after the front end
// closes its own, so the front end shuts the socket down before it closes
// it (clientConn.close): the client sees the connection end when the loop
// ends it, whatever a parked session elsewhere still holds. A transport
// that fails before the done record may have failed part way through a
// response: the request is retried, or answered 502, only when no byte can
// have reached the client (reached, from the socket's own count). And a
// transport is pooled again only at a message boundary, which a done
// record that says the connection stays open is.

// pins reports whether p never re-dispatches a session whose node can
// still take traffic: it holds the connection's slot between requests and
// reconsiders no request.
func pins(p lard.ConnPolicy) bool {
	return p.HoldBetweenRequests() && !p.Reconsider(0, 0, lard.Request{})
}

// passable reports whether a session's first request lets its connection
// be passed whole: it keeps the connection open with nothing left to read
// behind its head (RequestHead.KeepsOpen, the back end's loop's own rule)
// and is a GET or a HEAD, a request the loop takes over.
func passable(head *httprelay.RequestHead) bool {
	return head.KeepsOpen() && (head.Method == "GET" || head.Method == "HEAD")
}

// clientConn is one client connection as the relay loop serves it.
type clientConn struct {
	net.Conn
	rc   syscall.RawConn // its socket where it is TCP, nil otherwise: only a TCP socket can go to a back end
	addr string          // its address as every handoff header carries it
	br   *bufio.Reader
	sess *lard.Session

	// sent is what the client has been sent, by the relay and by back ends
	// (their done records), against which reached reads the socket's own
	// count. shared: a split header went out, so a back end may hold a
	// copy of the socket.
	sent   int64
	shared bool
}

// newClientConn wraps a connection Serve accepted. It is small enough to
// be inlined, so that the clientConn stays on handleConn's stack.
func newClientConn(c net.Conn) *clientConn {
	cc := &clientConn{Conn: c}
	cc.rc, cc.addr = clientSocket(c)
	return cc
}

// clientSocket returns c's socket where c is a TCP connection, a
// *handoff.Socket or a *net.TCPConn (nil otherwise), and c's address as
// every handoff header carries it: a Socket's spelled from its netip form,
// one allocation, where a net.Addr's String makes several.
func clientSocket(c net.Conn) (syscall.RawConn, string) {
	switch c := c.(type) {
	case *handoff.Socket:
		rc, _ := c.SyscallConn()
		return rc, c.Peer().String()
	case *net.TCPConn:
		rc, _ := c.SyscallConn()
		return rc, c.RemoteAddr().String()
	}
	return nil, c.RemoteAddr().String()
}

// close ends the client's connection: a socket a back end may still hold
// a copy of is shut down first, which ends the connection for every copy.
// A shared socket is a TCP one, a *handoff.Socket or a *net.TCPConn, and
// both shut down by CloseWrite.
func (cc *clientConn) close() {
	if cc.shared {
		cc.Conn.(interface{ CloseWrite() error }).CloseWrite()
	}
	cc.Conn.Close()
}

// handoffTo sends the handoff message that opens the next session on b,
// and counts it: a pass of the whole connection where pass asks for one
// and b and the client allow it, a split session where they allow that,
// and a plain handoff otherwise.
func (s *Server) handoffTo(b *backendConn, cc *clientConn, head *httprelay.RequestHead, pass bool) error {
	owed := b.sw.InSession()
	sockets := b.sw.CarriesSockets() && cc.rc != nil
	var err error
	switch {
	case pass && sockets && len(head.Raw)+cc.br.Buffered() <= handoff.MaxPassData:
		// head.Raw is the connection's own scratch and the connection is
		// leaving: the pipelined bytes can join the head there.
		pipelined, _ := cc.br.Peek(cc.br.Buffered())
		if err = b.sw.Pass(cc.rc, cc.addr, append(head.Raw, pipelined...), s.cfg.headerTimeout); err == nil {
			b.passed = true
			s.m.passed.Inc()
			cc.Close() // the back end's copy is the connection now
		}
	case sockets:
		cc.shared = true // even a failed write may have taken the socket
		err = b.sw.Split(cc.rc, cc.addr, head.Raw, handoffFlags)
		b.split = true
	default:
		err = b.sw.Handoff(cc.addr, head.Raw, handoffFlags)
		b.split = false
	}
	if err != nil {
		return err
	}
	s.m.handoffs.Inc()
	if owed {
		s.m.endsWithHeader.Inc()
	}
	return nil
}

// response waits for the response to the request just sent on b. On a
// split session it may be the back end's done record, the response having
// gone to the client's socket; otherwise it is relayed to cw. It returns
// the bytes the client was sent and whether b stays usable.
func (s *Server) response(cw *writeTracker, b *backendConn, method string, on100 func() error) (int64, bool, error) {
	if b.split {
		d, ok, err := handoff.ReadDone(b.br)
		if err != nil {
			return 0, false, err
		}
		if ok {
			s.m.direct.Inc()
			return d.Written, d.Open, nil
		}
	}
	return httprelay.RelayResponseFrom(cw, b.br, b.c, method, maxHeadBytes, on100)
}

// reached reports whether anything of the failed response to the request
// on b can have reached the client: the relay wrote to it, or, on a split
// session, the socket has taken bytes the front end was never told of.
// Only a response that reached nothing is retried or answered 502.
func (s *Server) reached(cc *clientConn, cw *writeTracker, b *backendConn) bool {
	if cw.wrote {
		return true
	}
	if !b.split {
		return false
	}
	n, ok := socketWritten(cc.rc)
	return !ok || n != cc.sent
}

// awaitPassed waits for the connection passed on b to end and credits what
// the back end wrote to it; b, at a message boundary once the done record
// is in, goes back to the pool.
func (s *Server) awaitPassed(b *backendConn) {
	d, ok, err := handoff.ReadDone(b.br)
	if err != nil || !ok {
		return // b is closed, not pooled
	}
	s.m.bytesToClient.Add(uint64(d.Written))
	s.m.direct.Add(uint64(d.Responses))
	b.passed, b.clean = false, true
}
