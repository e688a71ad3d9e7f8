package handoff

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lard/internal/httprelay"
)

// DefaultSessionIdleTimeout is how long a session-framed transport may
// sit idle between sessions (in the front end's pool) before the back
// end closes it. It is deliberately much longer than the front end's
// default pool TTL, so the front end's eviction is what normally ends an
// idle transport; this is only the safety net against a front end that
// vanished without closing.
const DefaultSessionIdleTimeout = 2 * time.Minute

// Listener accepts handed-off connections on the back end and presents
// them as ordinary net.Conns whose RemoteAddr is the original client's —
// so an unmodified net/http server (or any other TCP server) can serve
// handed-off connections directly, mirroring the paper's transparency
// property.
//
// What the server writes reaches the peer unchanged, in order and as it
// wrote it: each Write is one write to the transport, each WriteBuffers one
// writev, and nothing is held.
// How many segments a response costs the front end is the server's to
// decide (internal/backend's loop writes each response whole).
//
// A connection whose handoff header carries FlagSessionFramed is a
// session-sequenced transport (protocol v2): Accept yields one virtual
// net.Conn per handed-off session, all sharing the one TCP connection,
// so the front end can pool and reuse back-end connections across client
// sessions. That is the only shape internal/frontend sends.
//
// A server that closes each conn it is given, as any unmodified one does,
// gets exactly that: one Accept and one conn per session. One that knows
// it sits behind a Listener may instead keep a session's conn for the
// transport's later sessions: read to its io.EOF, then NextSession (asked
// for by interface assertion; internal/backend's loop does), which reads
// the next header with the listener's own reader and timeouts and counts
// as the listener counts. Such a server owns the transport until it closes
// the conn, and if it came by the conn through http.Hijacker,
// http.Server.Close and Shutdown reach neither the conn nor the sessions
// that follow on it. Listener.Close does: it closes every transport,
// whoever reads from it.
//
// An unframed (v1) header is still accepted and consumes its connection:
// the benchmark's direct load generator and stage driver (bench/gen.go,
// bench/stages.go) speak it to time a back end without a front end.
//
// On Linux a Listener on a TCP address also answers on its pass address
// (pass.go), where a front end on the same host opens transports that can
// carry a client's socket. A split session's conn writes to the client's
// socket once the server asks it to (Direct) and reports each response
// (Answered); a server that does not ask is relayed as on any transport. A
// passed connection comes from Accept as a Conn the server answers the
// client on directly; it is the server's until it closes it, and its
// Close sends the front end the done record. Nothing needs asking for: a
// server that serves conns from Accept serves passed ones.
type Listener struct {
	ln net.Listener

	// passLn is the pass address, nil where there is none; only a peer of
	// passUID, this process's user, may open a transport on it.
	passLn  net.Listener
	passUID int

	// HandshakeTimeout bounds how long a newly accepted connection may
	// take to deliver its handoff header (default 5s). On a session-
	// framed transport it also bounds each subsequent header, measured
	// from that header's first byte. The header ends where its initial
	// data begins: those bytes are the session's to read, under the
	// server's own timeouts, like every frame after them.
	HandshakeTimeout time.Duration

	// SessionIdleTimeout bounds how long a session-framed transport may
	// wait between sessions for the next header's first byte (default
	// DefaultSessionIdleTimeout; negative = no limit).
	SessionIdleTimeout time.Duration

	// rejected counts connections dropped for bad handshakes, and pass
	// transports and headers refused; sessions counts handed-off sessions
	// begun (v1 and passed connections count one each); passed counts the
	// connections passed by descriptor; direct counts the responses servers
	// wrote to a client's own socket.
	rejected atomic.Uint64
	sessions atomic.Uint64
	passed   atomic.Uint64
	direct   atomic.Uint64

	acceptCh  chan net.Conn
	tempErrCh chan error
	done      chan struct{}

	startOnce sync.Once
	closeOnce sync.Once

	errMu   sync.Mutex
	err     error
	errDone chan struct{}

	// transports tracks live session-framed transports, TCP and pass ones,
	// and passed connections so Close can tear them down (their lifetime is
	// the listener's between sessions, not any accepted conn's; a passed
	// connection is tracked so that Close ends it like the rest).
	transMu    sync.Mutex
	transports map[net.Conn]struct{}

	// clients are the split sessions' copies of their clients' sockets,
	// under transMu: Close closes them before the transports, so that no
	// server can still be writing a response to one when its front end
	// learns that the transport is gone.
	clients map[*Socket]struct{}
}

// Listen announces on the local network address and returns a handoff
// Listener for it.
func Listen(network, addr string) (*Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return NewListener(ln), nil
}

// NewListener wraps an existing listener, and opens its pass address
// where it has one.
func NewListener(ln net.Listener) *Listener {
	return &Listener{
		ln:                 ln,
		passLn:             listenPasses(ln.Addr()),
		passUID:            os.Getuid(),
		HandshakeTimeout:   5 * time.Second,
		SessionIdleTimeout: DefaultSessionIdleTimeout,
		acceptCh:           make(chan net.Conn),
		tempErrCh:          make(chan error),
		done:               make(chan struct{}),
		errDone:            make(chan struct{}),
		transports:         make(map[net.Conn]struct{}),
		clients:            make(map[*Socket]struct{}),
	}
}

// Accept waits for the next successfully handed-off connection or
// session. A peer that fails the handoff handshake is closed and
// counted, not surfaced as an Accept error, so one malformed client
// cannot stop an http.Server loop.
func (l *Listener) Accept() (net.Conn, error) {
	l.startOnce.Do(func() {
		go l.acceptLoop()
		if l.passLn != nil {
			go l.acceptPasses()
		}
	})
	select {
	case c := <-l.acceptCh:
		return c, nil
	case err := <-l.tempErrCh:
		// A transient accept failure (EMFILE, ECONNABORTED): surfaced to
		// this caller — http.Server backs off and retries — while the
		// accept loop keeps running.
		return nil, err
	case <-l.errDone:
		return nil, l.acceptErr()
	}
}

func (l *Listener) acceptErr() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.err
}

func (l *Listener) setAcceptErr(err error) {
	l.errMu.Lock()
	if l.err == nil {
		l.err = err
		close(l.errDone)
	}
	l.errMu.Unlock()
}

// acceptLoop pulls raw TCP connections and hands each to its own
// handshake goroutine, so one slow handshake cannot delay other peers.
// Transient accept errors are reported without stopping the loop — a
// moment of fd pressure must not kill the listener for good; only a
// permanent failure (the listener closed) latches.
func (l *Listener) acceptLoop() {
	for {
		raw, err := l.ln.Accept()
		if err != nil {
			// The same transient test http.Server applies before backing
			// off and retrying (net.Error.Temporary, via a local
			// interface: the method is deprecated for new APIs but is
			// precisely the accept-retry contract).
			type temporary interface{ Temporary() bool }
			if te, ok := err.(temporary); ok && te.Temporary() {
				select {
				case l.tempErrCh <- err:
				case <-l.done:
					l.setAcceptErr(err)
					return
				}
				continue
			}
			l.setAcceptErr(err)
			return
		}
		go l.handshake(raw)
	}
}

// sessionHead is one handoff header as the listener reads it: the session
// it opens, and the client's socket where the header carried one.
type sessionHead struct {
	flags      byte
	client     net.Addr
	initialLen int
	fd         int // the client's socket (FlagSplit, FlagPass), -1 for none
}

// handshake reads the first handoff header and routes the connection: a
// v1 header yields the connection itself, any other starts the transport
// loop that yields one virtual conn per session.
func (l *Listener) handshake(raw net.Conn) {
	br := httprelay.GetReader(raw)
	if l.HandshakeTimeout > 0 {
		raw.SetReadDeadline(time.Now().Add(l.HandshakeTimeout))
	}
	if _, err := br.Peek(1); err != nil {
		// Nothing ever arrived: a health-probe dial, or a pool-seeded
		// transport the front end discarded before first use. A quiet
		// close, not a handshake failure.
		raw.Close()
		httprelay.PutReader(br)
		return
	}
	h, err := l.readHead(raw, br)
	if err != nil {
		l.reject(err) // before the close the peer can observe
		raw.Close()
		httprelay.PutReader(br)
		return
	}
	raw.SetReadDeadline(time.Time{})
	if h.flags&(FlagSessionFramed|FlagSplit|FlagPass) != 0 {
		l.addTransport(raw)
		l.serveTransport(raw, br, h)
		return
	}
	l.sessions.Add(1)
	c := newConn(raw, br, h.client)
	if !l.deliver(c) {
		// Never delivered: this goroutine is still the reader's only
		// user, so it can be recycled (unlike a delivered v1 conn, whose
		// reader lives as long as the server keeps the conn).
		raw.Close()
		httprelay.PutReader(br)
	}
}

// readHead reads a handoff header out of br and takes the client's socket
// its flags call for: one for FlagSplit and FlagPass, none otherwise
// (headerSocket). A header that does not parse, that comes without
// exactly the socket its flags call for, or a pass whose initial data
// exceeds MaxPassData is an error, and the socket it brought is closed.
func (l *Listener) readHead(raw net.Conn, br *bufio.Reader) (sessionHead, error) {
	at := headerOffset(raw, br)
	flags, client, n, err := readHeaderFields(br)
	if err != nil {
		return sessionHead{}, err
	}
	fd, err := headerSocket(raw, at, flags&(FlagSplit|FlagPass) != 0)
	if err == nil && flags&FlagPass != 0 && n > MaxPassData {
		closeFD(fd)
		err = errPassTooLong
	}
	if err != nil {
		return sessionHead{}, err
	}
	return sessionHead{flags: flags, client: client, initialLen: n, fd: fd}, nil
}

// reject counts a transport's failed header in Rejected, unless it is a
// clean end between sessions.
func (l *Listener) reject(err error) {
	if err != errIdleClosed {
		l.rejected.Add(1)
	}
}

// deliver pushes an accepted conn to Accept, reporting false if the
// listener closed first.
func (l *Listener) deliver(c net.Conn) bool {
	select {
	case l.acceptCh <- c:
		return true
	case <-l.done:
		return false
	}
}

// serveTransport runs one session-framed transport: serve the session h
// opens — yield a virtual conn for it (client's address, initialLen bytes
// of initial data next in br) and wait for the server to finish with it,
// or serve a pass (servePass) — then read the next header, for as long as
// each session is drained through its end-of-session record and headers
// keep parsing. Sessions on one transport are strictly sequential,
// mirroring the front end's pool (a pooled connection is checked out by at
// most one client session).
func (l *Listener) serveTransport(raw net.Conn, br *bufio.Reader, h sessionHead) {
	defer l.dropTransport(raw)
	closed := make(chan struct{}, 1)
	for {
		if h.flags&FlagPass != 0 {
			if !l.servePass(raw, br, h) {
				httprelay.PutReader(br)
				return
			}
		} else {
			sc := newSessionConn(raw, br, h.client, h.initialLen, closed)
			sc.l = l
			if l.holdClient(sc, h.fd) != nil {
				httprelay.PutReader(br)
				return
			}
			l.sessions.Add(1)
			if !l.deliver(sc) {
				// Undelivered: the loop is still the reader's only user.
				l.releaseClient(&sc.client)
				httprelay.PutReader(br)
				return
			}
			select {
			case <-closed:
				// The server closed the session; net/http quiesces its reads
				// before Close returns, so from here the loop is again the
				// reader's only user.
				l.releaseClient(&sc.client)
			case <-l.done:
				// Listener shutdown with the session possibly live: the server
				// may still be reading through br, so it must NOT be recycled.
				return
			}
			if !sc.drained() {
				// The server abandoned the session mid-stream (error response,
				// handler close): the transport's read position is inside the
				// dead session's frames, so it cannot be reused. Or the server
				// kept the conn across sessions (NextSession) until a header
				// failed it, which NextSession has counted.
				httprelay.PutReader(br)
				return
			}
		}
		var err error
		if h, err = l.readNextHeader(raw, br); err != nil {
			l.reject(err)
			httprelay.PutReader(br)
			return
		}
	}
}

// errIdleClosed marks a transport that ended cleanly between sessions —
// the front end evicted it from its pool — which is not a handshake
// failure.
var errIdleClosed = &idleClosedError{}

type idleClosedError struct{}

func (*idleClosedError) Error() string { return "handoff: transport closed while idle" }

// readNextHeader waits (bounded by SessionIdleTimeout) for the next
// session's header on an idle transport, then requires the complete
// header within HandshakeTimeout of its first byte.
func (l *Listener) readNextHeader(raw net.Conn, br *bufio.Reader) (sessionHead, error) {
	idle := l.SessionIdleTimeout
	if idle == 0 {
		idle = DefaultSessionIdleTimeout
	}
	if idle > 0 {
		raw.SetReadDeadline(time.Now().Add(idle))
	} else {
		raw.SetReadDeadline(time.Time{})
	}
	if _, err := br.Peek(1); err != nil {
		// EOF here is the pool eviction path: the front end closed a
		// transport it no longer wants. Deadline expiry is the back end
		// giving up on a front end that vanished. Neither is a handshake
		// fault.
		return sessionHead{}, errIdleClosed
	}
	if l.HandshakeTimeout > 0 {
		raw.SetReadDeadline(time.Now().Add(l.HandshakeTimeout))
	} else {
		raw.SetReadDeadline(time.Time{})
	}
	h, err := l.readHead(raw, br)
	if err != nil {
		return h, err
	}
	raw.SetReadDeadline(time.Time{})
	return h, nil
}

// servePass serves a pass header (pass.go): it reads the initial data and
// the idle bound, yields the client's socket from Accept as a Conn, waits
// for the server to close it, and sends the done record. It reports
// whether the transport is good for its next header. A message it refuses
// is counted in Rejected and its socket closed; the transport ends.
func (l *Listener) servePass(raw net.Conn, br *bufio.Reader, h sessionHead) bool {
	c, err := l.passedConn(raw, br, h)
	if err != nil {
		l.reject(err)
		return false
	}
	closed := make(chan struct{}, 1)
	c.closed = closed
	l.sessions.Add(1)
	l.passed.Add(1)
	l.addTransport(c.Conn)
	if !l.deliver(c) {
		l.dropTransport(c.Conn)
		return false
	}
	select {
	case <-closed:
	case <-l.done:
		return false
	}
	l.dropTransport(c.Conn) // closed by the server already: this forgets it
	var rec [doneLen]byte
	_, err = raw.Write(appendDone(rec[:0], Done{Written: c.written.Load(), Responses: c.responses.Load()}))
	return err == nil
}

// passedConn reads the rest of a pass message, what follows the header,
// and makes its Conn. On an error h's socket is closed.
func (l *Listener) passedConn(raw net.Conn, br *bufio.Reader, h sessionHead) (*Conn, error) {
	if l.HandshakeTimeout > 0 {
		raw.SetReadDeadline(time.Now().Add(l.HandshakeTimeout))
	}
	msg := make([]byte, h.initialLen+idleLen)
	_, err := io.ReadFull(br, msg)
	raw.SetReadDeadline(time.Time{})
	var bound int64
	if err == nil {
		bound = int64(binary.BigEndian.Uint64(msg[h.initialLen:]))
	}
	switch {
	case err != nil:
	case bound <= 0:
		err = errPassIdle
	case br.Buffered() > 0:
		// Nothing may follow a pass until its done record; what came in
		// the same message is no next header.
		err = errPassTrailing
	}
	if err != nil {
		closeFD(h.fd)
		return nil, err
	}
	tc, err := fileTCPConn(h.fd)
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: tc, initial: msg[:h.initialLen], clientAddr: tc.RemoteAddr(), idle: time.Duration(bound), l: l}, nil
}

// addTransport puts raw among what Close ends, or ends it now if Close
// already ran.
func (l *Listener) addTransport(raw net.Conn) {
	l.transMu.Lock()
	defer l.transMu.Unlock()
	select {
	case <-l.done:
		raw.Close()
	default:
		l.transports[raw] = struct{}{}
	}
}

// holdClient starts c's session with fd, the client's socket its header
// carried (-1 for none): c is split, and its copy is among what Close
// closes first. Once Close has run, fd is closed instead and the session
// must not start: its server could otherwise answer the client after the
// front end saw the transport end.
func (l *Listener) holdClient(c *sessionConn, fd int) error {
	c.split = fd >= 0
	if !c.split {
		return nil
	}
	l.transMu.Lock()
	defer l.transMu.Unlock()
	select {
	case <-l.done:
		closeFD(fd)
		return net.ErrClosed
	default:
	}
	c.client.reset(fd)
	l.clients[&c.client] = struct{}{}
	return nil
}

// releaseClient closes a session's copy of its client's socket, if it
// holds one, and forgets it.
func (l *Listener) releaseClient(c *Socket) {
	c.Close()
	l.transMu.Lock()
	delete(l.clients, c)
	l.transMu.Unlock()
}

func (l *Listener) dropTransport(raw net.Conn) {
	l.transMu.Lock()
	delete(l.transports, raw)
	l.transMu.Unlock()
	raw.Close()
}

// Close closes the underlying listener, the pass address, every
// session-framed transport, and every passed connection (virtual conns
// handed to the server see read errors and close in turn, and with them
// the split sessions' copies of their clients' sockets; a passed client
// sees its connection end).
func (l *Listener) Close() error {
	var err error
	l.closeOnce.Do(func() {
		close(l.done)
		err = l.ln.Close()
		if l.passLn != nil {
			l.passLn.Close()
		}
		l.transMu.Lock()
		for c := range l.clients {
			c.Close()
		}
		for raw := range l.transports {
			raw.Close()
		}
		l.transMu.Unlock()
	})
	return err
}

// Addr returns the listener's network address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Rejected returns how many connections were dropped for failing the
// handoff handshake, and how many pass transports and headers were
// refused.
func (l *Listener) Rejected() uint64 { return l.rejected.Load() }

// Sessions returns how many handed-off sessions have begun, accepted or
// kept by their server with NextSession (plain v1 connections and passed
// ones count one each).
func (l *Listener) Sessions() uint64 { return l.sessions.Load() }

// Passed returns how many connections front ends have passed by
// descriptor (pass.go); each is also one of Sessions.
func (l *Listener) Passed() uint64 { return l.passed.Load() }

// Direct returns how many responses servers wrote straight to a client's
// own socket, on split sessions and passed connections: each one a
// response that did not cross the front end.
func (l *Listener) Direct() uint64 { return l.direct.Load() }

// Conn is a handed-off connection that is the client's whole connection:
// a plain v1 handoff, whose TCP connection carries exactly one session, or
// a connection a front end passed by descriptor, which is the client's own
// socket. Reads serve the handoff message's initial data first and then
// the connection (a v1 Conn reads both through the reader the handshake
// parsed the header from), and RemoteAddr reports the original client's
// address: for a passed connection, its socket's peer.
//
// A passed Conn also counts the bytes written to it and the responses
// (Answered), and its Close sends both back to the front end in the
// transport's done record. Its IdleTimeout is the bound its pass message
// carried, the front end's own for a kept connection: nothing else is left
// to end one that goes quiet.
type Conn struct {
	net.Conn
	br         *bufio.Reader // v1 only
	initial    []byte        // passed only: initial data not yet read
	clientAddr net.Addr
	l          *Listener // passed only: whose Direct its responses count in

	written   atomic.Int64
	responses atomic.Uint32
	idle      time.Duration
	closeOnce sync.Once
	closed    chan<- struct{} // passed only: servePass's, sent once on Close
}

// newConn wraps a raw connection whose header the handshake consumed
// from br; the initial data and whatever follows it are still in br.
func newConn(raw net.Conn, br *bufio.Reader, client net.Addr) *Conn {
	return &Conn{Conn: raw, br: br, clientAddr: client}
}

// Read implements net.Conn.
//
//lard:noalloc
func (c *Conn) Read(p []byte) (int, error) {
	switch {
	case c.br != nil:
		return c.br.Read(p)
	case len(c.initial) > 0:
		n := copy(p, c.initial)
		c.initial = c.initial[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn, counting what it wrote.
//
//lard:noalloc
func (c *Conn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// WriteBuffers writes v in one writev, consuming it as net.Buffers.WriteTo
// does, and counts what it wrote as Write does.
//
//lard:noalloc
func (c *Conn) WriteBuffers(v *net.Buffers) (int64, error) {
	n, err := writeBuffers(c.Conn, v)
	c.written.Add(n)
	return n, err
}

// Direct is what a server that answers split sessions directly asks of
// every conn (sessionConn.Direct). A Conn's writes go to the client
// anyway.
func (c *Conn) Direct() {}

// Answered counts a response written to a passed connection, for its done
// record and the Listener's Direct.
//
//lard:noalloc
func (c *Conn) Answered(open bool) error {
	if c.l != nil {
		c.responses.Add(1)
		c.l.direct.Add(1)
	}
	return nil
}

// Close closes the connection; a passed one's transport then sends its
// done record.
func (c *Conn) Close() error {
	err := c.Conn.Close()
	if c.closed != nil {
		c.closeOnce.Do(func() { c.closed <- struct{}{} })
	}
	return err
}

// IdleTimeout is how long a server that keeps the connection open between
// requests should wait for the next one: the bound the pass message
// carried for a passed connection, 0 (no bound of the Listener's) for a v1
// one.
// internal/backend's loop asks for it.
func (c *Conn) IdleTimeout() time.Duration { return c.idle }

// RemoteAddr reports the original client's address, as the paper's
// client-transparent handoff does.
func (c *Conn) RemoteAddr() net.Addr { return c.clientAddr }

// clientAddr is the fallback address representation when the handed-off
// client address is not a parseable TCP address.
type clientAddr string

func (a clientAddr) Network() string { return "tcp" }
func (a clientAddr) String() string  { return string(a) }
