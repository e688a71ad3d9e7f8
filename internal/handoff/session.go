package handoff

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"time"
)

// Session-sequenced handoff (protocol v2). A header sent with
// FlagSessionFramed opens a *session* on the back-end connection instead
// of consuming it: every byte the front end sends after the header is
// wrapped in a length-prefixed frame, and a zero-length frame marks the
// end of the session. The back-end→front-end direction carries no framing
// of its own — the front end parses responses with full HTTP framing
// anyway, so it knows exactly where the session's last response ends — and
// the server's writes go to the transport as it makes them; only a split
// session's done records (pass.go) stand in for responses there. After the
// end-of-session record the same TCP
// connection is back in handshake state and the next handoff header (for
// an unrelated client) may follow, which is what lets the front end keep a
// per-node pool of warm connections and pay the TCP dial once per pool
// fill rather than once per handoff.
//
// Frame wire format: uint32 big-endian payload length, then the payload.
// Length 0 is the end-of-session record. Frames never exceed
// MaxFrameLen; a larger write is split.

// MaxFrameLen bounds one frame's payload. It matches MaxInitialData, the
// bound on the request head a handoff message can carry.
const MaxFrameLen = 1 << 20

// Static frame-path errors: both sit on //lard:noalloc paths, where a
// fmt.Errorf would be a per-call heap allocation.
var (
	errWriteAfterEnd = errors.New("handoff: write after end of session")
	errFrameTooLong  = errors.New("handoff: frame length exceeds MaxFrameLen")
)

// SessionWriter is the front-end→back-end direction of a session-framed
// transport, across the sessions it carries: Handoff opens the next
// session, each Write becomes one or more data frames, and End emits the
// end-of-session record that returns the transport to handshake state. A
// session left open when its transport goes idle owes that record;
// Handoff pays it in the same write as the next header. It is not safe
// for concurrent use, matching the relay loop's one-writer structure.
type SessionWriter struct {
	c      net.Conn
	prefix [4]byte
	// buf is the scratch a handoff message, or a frame small enough to be
	// worth copying, is assembled in so that it leaves in one Write.
	buf []byte
	// iov is the backing array for a large frame's writev vector; vec is
	// rebuilt from it each frame because net.Buffers.WriteTo consumes the
	// slice it is called on. Keeping both in the writer makes Write
	// allocation-free.
	iov   [2][]byte
	vec   net.Buffers
	ended bool
}

// NewSessionWriter builds the framing writer for a connection on which a
// FlagSessionFramed header has been sent: a session is open.
func NewSessionWriter(c net.Conn) *SessionWriter { return &SessionWriter{c: c} }

// NewTransportWriter builds the writer for a fresh connection that is to
// carry session-framed handoffs: no session is open until Handoff.
func NewTransportWriter(c net.Conn) *SessionWriter { return &SessionWriter{c: c, ended: true} }

// InSession reports whether a session is open: End has not been sent
// since the last header.
func (w *SessionWriter) InSession() bool { return !w.ended }

// Handoff opens the next session: the end-of-session record the previous
// one still owes, if any, then the handoff message (as Send writes it,
// with FlagSessionFramed set), all in one Write.
//
//lard:noalloc
func (w *SessionWriter) Handoff(clientAddr string, initialData []byte, flags byte) error {
	if err := checkHeader(clientAddr, initialData); err != nil {
		return err
	}
	w.buf = appendHeader(w.owedEnd(), flags|FlagSessionFramed, clientAddr, initialData)
	w.ended = false
	_, err := w.c.Write(w.buf)
	return err
}

// Split opens the next session as Handoff does, with the client's socket
// (its SyscallConn) sent just ahead of the header (FlagSplit, pass.go): the
// back end may answer the client on it directly. The writer's conn must be a
// pass transport (CarriesSockets). On an error the back end may hold a
// copy of the socket.
func (w *SessionWriter) Split(client syscall.RawConn, clientAddr string, initialData []byte, flags byte) error {
	if err := checkHeader(clientAddr, initialData); err != nil {
		return err
	}
	end := w.owedEnd()
	w.buf = appendHeader(end, flags|FlagSplit|FlagSessionFramed, clientAddr, initialData)
	w.ended = false
	return sendWithSocket(w.c, w.buf, len(end), client)
}

// Pass hands the client's whole connection over (FlagPass, pass.go): a
// header whose initial data is everything read from the client, the idle
// bound, which must be positive, and the socket, after the end-of-session
// record the last session owes. No session is open behind it: the
// transport's next use is a header, once the back end's done record for
// the connection has arrived. The writer's conn must be a pass transport,
// and client is the socket's SyscallConn. On success the back end has its
// own copy of the socket, and the caller closes its copy; on an error the
// caller still owns the connection.
func (w *SessionWriter) Pass(client syscall.RawConn, clientAddr string, initialData []byte, idle time.Duration) error {
	switch {
	case len(initialData) > MaxPassData || len(clientAddr) > MaxAddrLen:
		return errPassTooLong
	case idle <= 0:
		return errPassIdle
	}
	end := w.owedEnd()
	w.buf = appendHeader(end, FlagPass|FlagSessionFramed, clientAddr, initialData)
	w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(idle))
	w.ended = true
	return sendWithSocket(w.c, w.buf, len(end), client)
}

// CarriesSockets reports whether the writer's conn is a pass transport
// (DialPass), over which Split and Pass can send a client's socket.
func (w *SessionWriter) CarriesSockets() bool { return carriesSockets(w.c) }

// owedEnd starts the scratch with the end-of-session record the open
// session owes, if one is open.
//
//lard:noalloc
func (w *SessionWriter) owedEnd() []byte {
	if w.ended {
		return w.buf[:0]
	}
	return append(w.buf[:0], 0, 0, 0, 0)
}

// copiedFrameLen is the largest payload Write copies next to its prefix
// to send the frame with one plain Write; a request head is well inside
// it, a body buffer is not.
const copiedFrameLen = 4 << 10

// Write frames p and sends it. It reports len(p) on success, as io.Writer
// requires, even though the wire carries 4 extra bytes per frame.
//
//lard:noalloc
func (w *SessionWriter) Write(p []byte) (int, error) {
	if w.ended {
		return 0, errWriteAfterEnd
	}
	if n := len(p); 0 < n && n <= copiedFrameLen {
		w.buf = append(binary.BigEndian.AppendUint32(w.buf[:0], uint32(n)), p...)
		if _, err := w.c.Write(w.buf); err != nil {
			return 0, err
		}
		return n, nil
	}
	var written int
	for len(p) > 0 {
		chunk := p
		if len(chunk) > MaxFrameLen {
			chunk = chunk[:MaxFrameLen]
		}
		binary.BigEndian.PutUint32(w.prefix[:], uint32(len(chunk)))
		// One writev keeps the frame a single segment on the wire without
		// copying the payload next to its prefix.
		w.iov[0], w.iov[1] = w.prefix[:], chunk
		w.vec = w.iov[:]
		if _, err := w.vec.WriteTo(w.c); err != nil {
			return written, err
		}
		written += len(chunk)
		p = p[len(chunk):]
	}
	return written, nil
}

// End sends the end-of-session record. The transport is then ready for
// the next handoff header. End is idempotent.
func (w *SessionWriter) End() error {
	if w.ended {
		return nil
	}
	w.ended = true
	binary.BigEndian.PutUint32(w.prefix[:], 0)
	_, err := w.c.Write(w.prefix[:])
	return err
}

// sessionConn is the back end's side of one handed-off session on a
// shared transport: a virtual net.Conn whose reads serve the handoff
// message's initial data — the session's first frame, read where it lies
// in the transport's reader — and then unwrap data frames, returning
// io.EOF at the end-of-session record. Writes go straight to the transport
// (one session is active per transport at a time, so the response stream
// needs no framing), or to the client's socket (below). Close never closes
// the transport — it hands control back to the listener's transport loop,
// which either reads the next session's header or tears the transport down
// if the session was abandoned mid-stream (end).
//
// A header that carried the client's socket (pass.go) gives the session
// the Listener's copy of it, client. A split session's writes go there
// once the server has asked (Direct). A pass is the client's whole
// connection: it reads its message's initial data and then the socket,
// returning io.EOF at the client's close, and writes to the socket. Each
// deadline goes where the calls it bounds go.
//
// A server that knows what it sits behind need not Close between sessions:
// NextSession makes the same conn the transport's next session.
type sessionConn struct {
	net.Conn
	br *bufio.Reader
	l  *Listener // whose transport this is: NextSession reads and counts as it does

	mu         sync.Mutex
	clientAddr net.Addr // under mu: NextSession replaces it

	// Frame-decoding state. Reads are serialized by the caller (net/http
	// issues one read at a time), but a read blocked on the transport may
	// be aborted via SetReadDeadline and resumed later — net/http's
	// background-read abort does exactly this between requests — so the
	// partially-read length prefix must survive across calls. sawEnd is
	// the session's io.EOF: its end-of-session record, or a pass's client's
	// close.
	frameLeft int
	lenBuf    [4]byte
	lenGot    int
	sawEnd    bool
	sticky    error

	// closed is the transport loop's channel, one slot shared by the
	// transport's sessions in turn: Close leaves this session's one token
	// there, and the loop takes it before it starts the next session.
	closeOnce sync.Once
	closed    chan<- struct{}

	// split: the session's header carried its client's socket (FlagSplit),
	// and client holds the Listener's copy until the end-of-session record.
	// pass: the header passed the client's connection whole (FlagPass), and
	// client is that connection; initial is what is left of its initial
	// data, and idle the bound the pass carried. iov is the scratch of
	// client's writevs.
	split   bool
	pass    bool
	client  Socket
	iov     iovecs
	initial []byte
	idle    time.Duration

	// direct is set once the server answers clients itself (Direct), and
	// from then on a split session's writes go to the socket, written bytes
	// at a time, each response reported in a done record built in rec. A
	// pass's responses are counted, and reported with written in the one
	// done record at its end.
	direct    bool
	written   int64
	responses uint32
	rec       [doneLen]byte
}

// newSessionConn makes the conn a transport's sessions are served through;
// begin starts each. closed must have room for the token Close sends.
func newSessionConn(l *Listener, raw net.Conn, br *bufio.Reader, closed chan<- struct{}) *sessionConn {
	return &sessionConn{Conn: raw, br: br, l: l, closed: closed}
}

// begin makes c the session h opens, with the client's socket if the
// header carried one (holdClient: not once the Listener has closed), and
// counts it. On an error c is spent: every Read returns it.
//
//lard:noalloc
func (c *sessionConn) begin(h sessionHead) error {
	// Set first: a session the Listener's Close refuses writes nothing,
	// to its closed socket.
	c.pass = h.flags&FlagPass != 0
	c.split = h.fd >= 0 && !c.pass
	if err := c.l.holdClient(&c.client, h.fd); err != nil {
		c.sticky = err
		return err
	}
	c.l.sessions.Add(1)
	if c.pass {
		c.l.passed.Add(1)
	}
	c.mu.Lock()
	c.clientAddr = h.client
	c.mu.Unlock()
	c.frameLeft, c.sawEnd = h.initialLen, false
	c.initial, c.idle = h.initial, h.idle
	c.written, c.responses = 0, 0
	return nil
}

// Read implements net.Conn: initial data first, then frame payloads,
// io.EOF at the end-of-session record; a pass's initial data, then its
// socket, whose errors are the client's and leave the transport as it is.
//
//lard:noalloc
func (c *sessionConn) Read(p []byte) (int, error) {
	switch {
	case c.sticky != nil:
		return 0, c.sticky
	case c.pass && len(c.initial) > 0:
		n := copy(p, c.initial)
		c.initial = c.initial[n:]
		return n, nil
	case c.pass && !c.sawEnd:
		n, err := c.client.Read(p)
		c.sawEnd = err == io.EOF
		return n, err
	}
	for {
		if c.frameLeft > 0 {
			if len(p) > c.frameLeft {
				p = p[:c.frameLeft]
			}
			n, err := c.br.Read(p)
			c.frameLeft -= n
			if err != nil && !isTimeout(err) {
				c.sticky = fatalReadErr(err)
				if n > 0 {
					return n, nil
				}
				return 0, c.sticky
			}
			return n, err
		}
		if c.sawEnd {
			return 0, io.EOF
		}
		// Assemble the 4-byte length prefix incrementally so an aborted
		// (deadline) read resumes where it stopped instead of losing
		// prefix bytes.
		for c.lenGot < 4 {
			n, err := c.br.Read(c.lenBuf[c.lenGot:])
			c.lenGot += n
			if err != nil {
				if isTimeout(err) {
					return 0, err
				}
				c.sticky = fatalReadErr(err)
				return 0, c.sticky
			}
		}
		c.lenGot = 0
		size := binary.BigEndian.Uint32(c.lenBuf[:])
		if size == 0 {
			c.sawEnd = true
			c.client.Close()
			return 0, io.EOF
		}
		if size > MaxFrameLen {
			c.sticky = errFrameTooLong
			return 0, c.sticky
		}
		c.frameLeft = int(size)
	}
}

// fatalReadErr normalizes a transport failure mid-session: an EOF inside
// a frame is a truncation, not a clean end of stream, and must not look
// like one to net/http.
func fatalReadErr(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// isTimeout reports a deadline expiry — the only read error a session
// conn recovers from, because it is how net/http aborts its own
// speculative background read between requests.
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// toClient reports whether the session's writes go to the client's
// socket: a pass's always, a split session's once the server has asked
// (Direct), and never to the transport once that socket is closed.
func (c *sessionConn) toClient() bool { return c.pass || c.split && c.direct }

// Write implements net.Conn: to the transport, or to the client (toClient).
//
//lard:noalloc
func (c *sessionConn) Write(p []byte) (int, error) {
	if !c.toClient() {
		return c.Conn.Write(p)
	}
	n, err := c.client.Write(p)
	c.written += int64(n)
	return n, err
}

// WriteBuffers writes v whole, or fails, consuming it as net.Buffers.WriteTo
// does, and goes where Write goes: to the transport in one writev, or to
// the client in raw writevs (Socket).
//
//lard:noalloc
func (c *sessionConn) WriteBuffers(v *net.Buffers) (int64, error) {
	if !c.toClient() {
		return writeBuffers(c.Conn, v)
	}
	n, err := c.client.writeBuffers(v, &c.iov)
	c.written += n
	return n, err
}

// SetDeadline sets both deadlines, each where its calls go.
func (c *sessionConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

// SetReadDeadline bounds what Read reads: the transport, or a pass's
// socket.
func (c *sessionConn) SetReadDeadline(t time.Time) error {
	if c.pass {
		return c.client.SetReadDeadline(t)
	}
	return c.Conn.SetReadDeadline(t)
}

// SetWriteDeadline bounds what Write writes: the transport, or the client
// (toClient).
func (c *sessionConn) SetWriteDeadline(t time.Time) error {
	if c.toClient() {
		return c.client.SetWriteDeadline(t)
	}
	return c.Conn.SetWriteDeadline(t)
}

// buffersWriter is a conn that writes a net.Buffers in one writev: this
// package's Conn and sessionConn, which a server asks for it by this method
// (internal/backend's loop does). net.Buffers.WriteTo finds the writev of the
// net package's own conns only, so a conn that wraps one keeps it by
// offering the method, as these two do, and as a wrapped conn the Listener
// was given may (internal/backend's tests count writes through one).
type buffersWriter interface {
	WriteBuffers(v *net.Buffers) (int64, error)
}

// writeBuffers writes v to c, consuming it: in one writev where c is a
// socket, or a wrapper of one that says so (buffersWriter).
//
//lard:noalloc
func writeBuffers(c net.Conn, v *net.Buffers) (int64, error) {
	if bw, ok := c.(buffersWriter); ok {
		return bw.WriteBuffers(v)
	}
	return v.WriteTo(c)
}

// Direct is how a server says it answers a split session's client itself,
// one response at a time, each reported with Answered: from now on, on
// this session and every later one it keeps with NextSession, a split
// session's writes go to the client's socket. A server that never asks is
// relayed: its writes go to the transport, as on any session. A pass's go
// to the client whether asked or not.
func (c *sessionConn) Direct() { c.direct = true }

// Answered reports that the server has written a whole response, and
// whether the connection stays open behind it. On a split session whose
// writes go to the client (Direct) it sends the front end the done record
// in the response's place; a pass counts it for the done record at its
// end; elsewhere it does nothing.
//
//lard:noalloc
func (c *sessionConn) Answered(open bool) error {
	switch {
	case c.pass:
		c.responses++
		c.l.direct.Add(1)
		return nil
	case !c.toClient():
		return nil
	}
	d := Done{Written: c.written, Responses: 1, Open: open}
	c.written = 0
	c.l.direct.Add(1)
	_, err := c.Conn.Write(appendDone(c.rec[:0], d))
	return err
}

// IdleTimeout is how long a server that keeps the connection open between
// requests should wait for the next one: for a pass, the bound its message
// carried, the front end's own, since nothing else is left to end one that
// goes quiet; 0 (no bound of the Listener's) for any other session.
// internal/backend's loop asks for it at every session.
func (c *sessionConn) IdleTimeout() time.Duration { return c.idle }

// Close releases the session back to the transport loop, which ends it
// (end). The client's socket is closed at once.
func (c *sessionConn) Close() error {
	c.client.Close()
	c.closeOnce.Do(func() { c.closed <- struct{}{} })
	return nil
}

// end is the one check after a session ends, once its server has closed it
// or read it to its io.EOF (NextSession): the client's socket goes, a pass
// sends its done record, and end reports whether the transport stands at
// its next header (nil) or must go. A framed session leaves it there only
// if read through its end-of-session record; a pass, which no frame
// follows, once its done record is out.
//
//lard:noalloc
func (c *sessionConn) end() error {
	if c.split || c.pass {
		c.l.releaseClient(&c.client)
	}
	switch {
	case c.sticky != nil:
		return c.sticky
	case c.pass:
		_, err := c.Conn.Write(appendDone(c.rec[:0], Done{Written: c.written, Responses: c.responses}))
		return err
	case !c.sawEnd:
		return errSessionOpen
	}
	return nil
}

func (c *sessionConn) RemoteAddr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clientAddr
}

var errSessionOpen = errors.New("handoff: NextSession before the end of the session")

// NextSession keeps the transport for its next session: it ends this one
// (end), waits for the next handoff header as the transport loop would
// (readNextHeader: SessionIdleTimeout until its first byte,
// HandshakeTimeout from it), and is then that session's conn (begin),
// whatever the header opens: framed, split or a pass. It is valid only
// once Read has returned io.EOF, the end-of-session record or a passed
// client's close. The server keeps the conn's one Close, and
// http.Server.Close and Shutdown reach a hijacked conn no more between
// sessions than within one: Listener.Close, which closes the transport,
// does. On an error the conn is spent (every Read returns it) and Close
// has the loop tear the transport down; a bad header is counted in
// Rejected here, once, and a transport that closed or idled out is not.
//
//lard:noalloc
func (c *sessionConn) NextSession() error {
	if !c.sawEnd || c.sticky != nil {
		return errSessionOpen
	}
	if err := c.end(); err != nil {
		c.sticky = err
		return err
	}
	h, err := c.l.readNextHeader(c.Conn, c.br)
	if err != nil {
		c.sticky = err
		c.l.reject(err)
		return err
	}
	return c.begin(h)
}

// parseClientAddr parses the handed-off client address, falling back to
// an opaque representation when it is not a literal "ip:port".
func parseClientAddr(s string) net.Addr {
	if ap, err := netip.ParseAddrPort(s); err == nil {
		return net.TCPAddrFromAddrPort(ap)
	}
	return clientAddr(s)
}
