package handoff

import (
	"bufio"
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
// wrote it: each Write is one write to the transport, and nothing is held.
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
// (pass.go): a front end on the same host may pass a client's socket
// itself, and Accept yields it as a Conn the server answers the client on
// directly. Such a connection is the server's until it closes it; its
// Close sends the front end the done record. Nothing needs asking for: a
// server that serves conns from Accept serves passed ones.
type Listener struct {
	ln net.Listener

	// passLn is the pass address, nil where there is none; only a peer of
	// passUID, this process's user, may open a channel on it.
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
	// channels and messages refused; sessions counts handed-off sessions
	// begun (v1 and passed connections count one each); passed counts the
	// connections passed by descriptor.
	rejected atomic.Uint64
	sessions atomic.Uint64
	passed   atomic.Uint64

	acceptCh  chan net.Conn
	tempErrCh chan error
	done      chan struct{}

	startOnce sync.Once
	closeOnce sync.Once

	errMu   sync.Mutex
	err     error
	errDone chan struct{}

	// transports tracks live session-framed transports, pass channels and
	// passed connections so Close can tear them down (their lifetime is
	// the listener's between sessions, not any accepted conn's; a passed
	// connection is tracked so that Close ends it like the rest).
	transMu    sync.Mutex
	transports map[net.Conn]struct{}
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

// handshake reads the first handoff header and routes the connection: a
// v1 header yields the connection itself, a session-framed header starts
// the transport loop that yields one virtual conn per session.
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
	flags, client, initialLen, err := readHeaderFields(br)
	if err != nil {
		l.rejected.Add(1) // before the close the peer can observe
		raw.Close()
		httprelay.PutReader(br)
		return
	}
	raw.SetReadDeadline(time.Time{})
	if flags&FlagSessionFramed != 0 {
		l.addTransport(raw)
		l.serveTransport(raw, br, client, initialLen)
		return
	}
	l.sessions.Add(1)
	c := newConn(raw, br, client)
	if !l.deliver(c) {
		// Never delivered: this goroutine is still the reader's only
		// user, so it can be recycled (unlike a delivered v1 conn, whose
		// reader lives as long as the server keeps the conn).
		raw.Close()
		httprelay.PutReader(br)
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
// for the current header (client's address, initialLen bytes of initial
// data next in br), wait for the server to finish with it, then read the
// next header — for as long as each session is drained through
// its end-of-session record and headers keep parsing. Sessions on one
// transport are strictly sequential, mirroring the front end's pool
// (a pooled connection is checked out by at most one client session).
func (l *Listener) serveTransport(raw net.Conn, br *bufio.Reader, client net.Addr, initialLen int) {
	defer l.dropTransport(raw)
	closed := make(chan struct{}, 1)
	for {
		l.sessions.Add(1)
		sc := newSessionConn(raw, br, client, initialLen, closed)
		sc.l = l
		if !l.deliver(sc) {
			// Undelivered: the loop is still the reader's only user.
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
		if !sc.drained() {
			// The server abandoned the session mid-stream (error response,
			// handler close): the transport's read position is inside the
			// dead session's frames, so it cannot be reused. Or the server
			// kept the conn across sessions (NextSession) until a header
			// failed it, which NextSession has counted.
			httprelay.PutReader(br)
			return
		}
		var err error
		if client, initialLen, err = l.readNextHeader(raw, br); err != nil {
			if err != errIdleClosed {
				l.rejected.Add(1)
			}
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
func (l *Listener) readNextHeader(raw net.Conn, br *bufio.Reader) (client net.Addr, initialLen int, err error) {
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
		return nil, 0, errIdleClosed
	}
	if l.HandshakeTimeout > 0 {
		raw.SetReadDeadline(time.Now().Add(l.HandshakeTimeout))
	} else {
		raw.SetReadDeadline(time.Time{})
	}
	if _, client, initialLen, err = readHeaderFields(br); err != nil {
		return nil, 0, err
	}
	raw.SetReadDeadline(time.Time{})
	return client, initialLen, nil
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

func (l *Listener) dropTransport(raw net.Conn) {
	l.transMu.Lock()
	delete(l.transports, raw)
	l.transMu.Unlock()
	raw.Close()
}

// Close closes the underlying listener, the pass address, every
// session-framed transport and pass channel, and every passed connection
// (virtual conns handed to the server see read errors and close in turn;
// a passed client sees its connection end).
func (l *Listener) Close() error {
	var err error
	l.closeOnce.Do(func() {
		close(l.done)
		err = l.ln.Close()
		if l.passLn != nil {
			l.passLn.Close()
		}
		l.transMu.Lock()
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
// handoff handshake.
func (l *Listener) Rejected() uint64 { return l.rejected.Load() }

// Sessions returns how many handed-off sessions have begun, accepted or
// kept by their server with NextSession (plain v1 connections and passed
// ones count one each).
func (l *Listener) Sessions() uint64 { return l.sessions.Load() }

// Passed returns how many connections front ends have passed by
// descriptor (pass.go); each is also one of Sessions.
func (l *Listener) Passed() uint64 { return l.passed.Load() }

// Conn is a handed-off connection that is the client's whole connection:
// a plain v1 handoff, whose TCP connection carries exactly one session, or
// a connection a front end passed by descriptor, which is the client's own
// socket. Reads serve the handoff message's initial data first and then
// the connection (a v1 Conn reads both through the reader the handshake
// parsed the header from), and RemoteAddr reports the original client's
// address: for a passed connection, its socket's peer.
//
// A passed Conn also counts the bytes written to it, and its Close sends
// them back to the front end in the channel's done record. Its IdleTimeout
// is the bound its pass message carried, the front end's own for a kept
// connection: nothing else is left to end one that goes quiet.
type Conn struct {
	net.Conn
	br         *bufio.Reader // v1 only
	initial    []byte        // passed only: initial data not yet read
	clientAddr net.Addr

	written   atomic.Int64
	idle      time.Duration
	closeOnce sync.Once
	closed    chan<- struct{} // passed only: the channel loop's, sent once on Close
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

// Close closes the connection; a passed one's channel then sends its done
// record.
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
