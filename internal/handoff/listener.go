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
// passed connection is one more session: its conn reads the pass's initial
// data and then the client's socket, and writes to that socket. It ends at
// the client's close, as a framed session ends at its end-of-session
// record, or when the server closes it, and the Listener then sends the
// front end the done record. Nothing needs asking for: a server that serves
// conns from Accept serves passed ones.
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
	// so Close can tear them down (their lifetime is the listener's between
	// sessions, not any accepted conn's).
	transMu    sync.Mutex
	transports map[net.Conn]struct{}

	// clients are the sessions' copies of their clients' sockets, split and
	// passed, under transMu: Close closes them before the transports, so
	// that no server can still be writing a response to one when its front
	// end learns that the transport is gone.
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
// it opens, the client's socket where the header carried one, and a pass's
// message.
type sessionHead struct {
	flags      byte
	client     net.Addr
	initialLen int // the initial data left in the reader: a framed session's first frame
	fd         int // the client's socket (FlagSplit, FlagPass), -1 for none

	// A pass's initial data and idle bound, read out of the reader with
	// its header.
	initial []byte
	idle    time.Duration
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
// (headerSocket). A pass's header comes with the rest of its message, its
// initial data and idle bound, which readHead reads too. A header that does
// not parse, that comes without exactly the TCP socket its flags call for,
// or a pass whose message exceeds MaxPassData, lacks a positive idle bound
// or has bytes behind it is an error, and the socket it brought is closed.
func (l *Listener) readHead(raw net.Conn, br *bufio.Reader) (sessionHead, error) {
	at := headerOffset(raw, br)
	flags, client, n, err := readHeaderFields(br)
	if err != nil {
		return sessionHead{}, err
	}
	fd, err := headerSocket(raw, at, flags&(FlagSplit|FlagPass) != 0)
	if err != nil {
		return sessionHead{}, err
	}
	h := sessionHead{flags: flags, client: client, initialLen: n, fd: fd}
	if flags&FlagPass != 0 {
		err = readPass(br, &h)
	}
	if err != nil {
		closeFD(fd)
		return sessionHead{}, err
	}
	return h, nil
}

// readPass reads what follows a pass's header: its initial data, which
// leaves the reader for h.initial, and its idle bound.
func readPass(br *bufio.Reader, h *sessionHead) error {
	if h.initialLen > MaxPassData {
		return errPassTooLong
	}
	msg := make([]byte, h.initialLen+idleLen)
	if _, err := io.ReadFull(br, msg); err != nil {
		return err
	}
	h.initial, h.initialLen = msg[:h.initialLen], 0
	h.idle = time.Duration(binary.BigEndian.Uint64(msg[len(h.initial):]))
	switch {
	case h.idle <= 0:
		return errPassIdle
	case br.Buffered() > 0:
		// Nothing may follow a pass until its done record; what came in
		// the same message is no next header.
		return errPassTrailing
	}
	return nil
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

// serveTransport runs one session-framed transport: yield a virtual conn
// for the session h opens (begin) and wait for the server to finish with
// it, then read the next header, for as long as each session leaves the
// transport at its next header (end) and headers keep parsing. Sessions on
// one transport are strictly sequential, mirroring the front end's pool (a
// pooled connection is checked out by at most one client session).
func (l *Listener) serveTransport(raw net.Conn, br *bufio.Reader, h sessionHead) {
	defer l.dropTransport(raw)
	closed := make(chan struct{}, 1)
	for {
		sc := newSessionConn(l, raw, br, closed)
		if sc.begin(h) != nil {
			httprelay.PutReader(br)
			return
		}
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
		case <-l.done:
			// Listener shutdown with the session possibly live: the server
			// may still be reading through br, so it must NOT be recycled.
			return
		}
		if sc.end() != nil {
			// The server abandoned the session mid-stream (error response,
			// handler close): the transport's read position is inside the
			// dead session's frames, so it cannot be reused. Or the server
			// kept the conn across sessions (NextSession) until a header
			// failed it, which NextSession has counted. Or a pass's done
			// record did not go.
			httprelay.PutReader(br)
			return
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

// holdClient makes fd, the client's socket a header carried (-1 for
// none), the session's copy s, among what Close closes first. Once Close
// has run, fd is closed instead and the session must not start: its server
// could otherwise answer the client after the front end saw the transport
// end.
func (l *Listener) holdClient(s *Socket, fd int) error {
	if fd < 0 {
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
	s.reset(fd)
	l.clients[s] = struct{}{}
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

// Close closes the underlying listener, the pass address, every client's
// socket a session holds, and every session-framed transport (virtual conns
// handed to the server see read errors and close in turn; a passed client
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

// Conn is a plain v1 handoff, whose TCP connection carries exactly one
// session: the client's whole connection. Reads serve the handoff message's
// initial data first and then the connection, both through the reader the
// handshake parsed the header from, and RemoteAddr reports the original
// client's address.
type Conn struct {
	net.Conn
	br         *bufio.Reader
	clientAddr net.Addr
}

// newConn wraps a raw connection whose header the handshake consumed
// from br; the initial data and whatever follows it are still in br.
func newConn(raw net.Conn, br *bufio.Reader, client net.Addr) *Conn {
	return &Conn{Conn: raw, br: br, clientAddr: client}
}

// Read implements net.Conn.
//
//lard:noalloc
func (c *Conn) Read(p []byte) (int, error) { return c.br.Read(p) }

// WriteBuffers writes v in one writev, consuming it as net.Buffers.WriteTo
// does.
//
//lard:noalloc
func (c *Conn) WriteBuffers(v *net.Buffers) (int64, error) { return writeBuffers(c.Conn, v) }

// RemoteAddr reports the original client's address, as the paper's
// client-transparent handoff does.
func (c *Conn) RemoteAddr() net.Addr { return c.clientAddr }

// clientAddr is the fallback address representation when the handed-off
// client address is not a parseable TCP address.
type clientAddr string

func (a clientAddr) Network() string { return "tcp" }
func (a clientAddr) String() string  { return string(a) }
