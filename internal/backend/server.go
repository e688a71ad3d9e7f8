package backend

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lard/internal/cache"
	"lard/internal/cluster"
	"lard/internal/httprelay"
)

// Config describes one prototype back end.
type Config struct {
	// Store is the document database served by this node.
	Store *DocStore

	// CacheBytes is the in-memory cache capacity (default 32 MB, the
	// paper's simulated node cache; the paper's real back ends observed
	// "file cache sizes between 42 and 46 MB" under FreeBSD).
	CacheBytes int64

	// DiskTimeScale scales the emulated disk delay of a cache miss, the
	// simulator's DefaultCostModel read time (the paper's 28 ms +
	// 410 µs/4 KB model): 1.0 = full 28 ms seeks; tests use small values
	// to stay fast; 0 disables the delay.
	DiskTimeScale float64

	// sleep replaces time.Sleep: a test hook (nil = time.Sleep).
	sleep func(time.Duration)
}

// Stats reports a back end's activity, exposed on /_lard/stats.
type Stats struct {
	Requests  uint64 `json:"requests"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	NotFound  uint64 `json:"not_found"`
	BytesSent int64  `json:"bytes_sent"`
	Writes    int64  `json:"writes"` // the Writes BytesSent went out in: one per hit or miss is one response, one write
	CacheUsed int64  `json:"cache_used"`
	CacheLen  int    `json:"cache_len"`

	// Takeovers counts connections the node's own loop took from net/http;
	// LoopSessions the sessions that loop began, a connection's first or one
	// it kept the transport for. Far more sessions than takeovers says
	// handed-off sessions are reaching the node without crossing net/http.
	Takeovers    uint64 `json:"takeovers"`
	LoopSessions uint64 `json:"loop_sessions"`
}

// Server is the prototype back-end node: an http.Handler serving the
// document store through a main-memory cache with emulated disk misses.
// It is safe for concurrent use.
type Server struct {
	cfg   Config
	cache cache.Cache
	sleep func(time.Duration)

	bytesSent, writes       atomic.Int64
	takeovers, loopSessions atomic.Uint64
	date                    atomic.Pointer[dateLine]

	mu    sync.Mutex
	stats Stats // but for BytesSent, Writes, Takeovers and LoopSessions
}

// New builds a back-end server. It panics if cfg.Store is nil.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("backend: Config.Store is nil")
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = cluster.DefaultCacheBytes
	}
	if cfg.DiskTimeScale < 0 {
		cfg.DiskTimeScale = 0
	}
	// The paper's GDS, counting hits: with documents of similar size
	// plain GDS(1) is LRU and forgets how often each was asked for.
	c := cache.NewGDSF(cfg.CacheBytes)
	sleep := cfg.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	return &Server{cfg: cfg, cache: c, sleep: sleep}
}

// Handler returns the node's HTTP handler: documents at their target
// paths, plus GET /_lard/stats for scraping.
//
// It crosses net/http once per transport, not once per request or per
// session, and the node's own loop writes every response it answers. A
// connection's first request that is an HTTP/1.1 GET or HEAD with no body
// and no Expect is answered by taking the connection over (http.Hijacker):
// serveSession writes the answer whole, then, unless the request asked for a
// close, reads and answers the session's later requests on the same
// goroutine, with the parser the front end reads the same heads with, until
// the peer ends the session. Where the connection is a session of a
// handoff.Listener's transport, the loop keeps it for the transport's next
// session and every one after (NextSession), so none of them is accepted,
// given a goroutine or read by net/http: the first request on a transport
// is the only one that is.
//
// From the takeover on the loop owns the connection's Close, and with it the
// transport's later sessions: http.Server.Close and Shutdown reach neither
// (to them the connection is hijacked), the peer's close and the
// handoff.Listener's Close (which closes the transports) do. The server's
// ReadHeaderTimeout still times every head from its first byte, and the
// listener's own timeouts every handoff header. net/http writes only what
// the loop does not take: an answer to a ResponseWriter that is no Hijacker
// (HTTP/2, a recorder), and one to a first request that takesOver refuses.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a, bodiless := s.decide(r.Method, r.URL.Path), r.Method == http.MethodHead
		if hj, ok := w.(http.Hijacker); ok && takesOver(r) {
			if conn, rw, err := hj.Hijack(); err == nil {
				s.serveSession(conn, rw.Reader, headTimeout(r), a, bodiless, r.Close)
				return
			}
		}
		s.answerHTTP(w, &a, bodiless)
	})
}

// HTTPServer returns the net/http server a node is served with, over a
// handoff.Listener. The listener's HandshakeTimeout ends where a handoff
// header does; from there a session's bytes are under this server's
// timeouts (the handler's loop takes them from it), and without one a peer
// that sends half a request head holds a goroutine and a transport for
// ever. A head has five seconds from its first byte (the front end sends
// heads whole, so only a broken or hostile peer is ever timed). There is no
// IdleTimeout on purpose: the front end parks open sessions in its pool and
// ends them itself.
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
}

// Stats returns a snapshot of the node's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.BytesSent, st.Writes = s.bytesSent.Load(), s.writes.Load()
	st.Takeovers, st.LoopSessions = s.takeovers.Load(), s.loopSessions.Load()
	st.CacheUsed = s.cache.Used()
	st.CacheLen = s.cache.Len()
	return st
}

// answer is the decision about one request, before either writer has put a
// byte of it anywhere: a document, or a short body of the node's own.
type answer struct {
	status int
	doc    *document // the body, generated as it is sent
	hit    bool      // doc was in the cache
	own    *ownBody  // without a document
}

// ownBody is a body of the node's own: an error's line or the counters,
// its type and, on a 405, the methods there are.
type ownBody struct {
	body         []byte
	ctype, allow string
}

const (
	statsPath = "/_lard/stats"
	textPlain = "text/plain; charset=utf-8"
)

var (
	notFound         = answer{status: http.StatusNotFound, own: &ownBody{body: []byte("404 page not found\n"), ctype: textPlain}}
	methodNotAllowed = answer{status: http.StatusMethodNotAllowed, own: &ownBody{body: []byte("method not allowed\n"), ctype: textPlain, allow: "GET, HEAD"}}
	badRequest       = answer{status: http.StatusBadRequest, own: &ownBody{body: []byte("400 Bad Request"), ctype: textPlain}}
)

// Header values every document's response shares; like
// document.contentLength they are never written to.
var octetStream, cacheHit, cacheMiss = []string{"application/octet-stream"}, []string{"HIT"}, []string{"MISS"}

func xCache(hit bool) []string {
	if hit {
		return cacheHit
	}
	return cacheMiss
}

// decide answers one request for path, r.URL.Path or the loop's equal of
// it: the one place a method and a path become a status, a document and a
// hit or a miss, for both writers.
//
//lard:noalloc
func (s *Server) decide(method, path string) answer {
	if path == statsPath {
		return s.statsAnswer()
	}
	if method != http.MethodGet && method != http.MethodHead {
		return methodNotAllowed
	}
	doc, ok := s.cfg.Store.lookup(path)

	// Cache consultation mirrors the simulator's node: a hit serves from
	// memory; a miss pays the (scaled) disk read time, then caches.
	hit := false
	s.mu.Lock()
	s.stats.Requests++
	if !ok {
		s.stats.NotFound++
	} else if _, hit = s.cache.Lookup(path); hit {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	s.mu.Unlock()
	if !ok {
		return notFound
	}
	if !hit {
		if s.cfg.DiskTimeScale > 0 {
			d := time.Duration(float64(cluster.DefaultCostModel().DiskReadTime(doc.size)) * s.cfg.DiskTimeScale)
			s.sleep(d)
		}
		s.mu.Lock()
		s.cache.Insert(path, doc.size)
		s.mu.Unlock()
	}
	return answer{status: http.StatusOK, doc: doc, hit: hit}
}

//go:noinline
func (s *Server) statsAnswer() answer {
	body, err := json.Marshal(s.Stats())
	if err != nil {
		panic(fmt.Sprintf("backend: encoding stats: %v", err))
	}
	return answer{status: http.StatusOK, own: &ownBody{body: append(body, '\n'), ctype: "application/json"}}
}

// answerHTTP writes a through net/http.
//
//lard:noalloc
func (s *Server) answerHTTP(w http.ResponseWriter, a *answer, bodiless bool) {
	h := w.Header()
	if a.doc != nil {
		h["Content-Length"], h["Content-Type"], h["X-Cache"] = a.doc.contentLength, octetStream, xCache(a.hit)
	} else {
		setOwnFields(h, a.own)
	}
	w.WriteHeader(a.status)
	if bodiless {
		return
	}
	r := responsePool.Get().(*response)
	defer responsePool.Put(r)
	s.sendBody(w, r, r.buf[:0], a)
}

//go:noinline
func setOwnFields(h http.Header, o *ownBody) {
	h.Set("Content-Length", strconv.Itoa(len(o.body)))
	h.Set("Content-Type", o.ctype)
	if o.allow != "" {
		h.Set("Allow", o.allow)
	}
}

// answerConn writes a on a connection the loop owns: the head it assembles
// and the body in one write at any size (document.send).
//
//lard:noalloc
func (s *Server) answerConn(conn net.Conn, a *answer, bodiless, last bool) error {
	r := responsePool.Get().(*response)
	defer responsePool.Put(r)
	b := append(r.buf[:0], "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(a.status), 10)
	b = append(append(append(b, ' '), http.StatusText(a.status)...), "\r\nContent-Length: "...)
	if a.doc != nil {
		b = append(append(b, a.doc.contentLength[0]...), "\r\nContent-Type: "...)
		b = append(append(b, octetStream[0]...), "\r\nX-Cache: "...)
		b = append(b, xCache(a.hit)[0]...)
	} else {
		b = append(strconv.AppendInt(b, int64(len(a.own.body)), 10), "\r\nContent-Type: "...)
		b = append(b, a.own.ctype...)
		if a.own.allow != "" {
			b = append(append(b, "\r\nAllow: "...), a.own.allow...)
		}
	}
	b = s.appendDate(append(b, "\r\n"...))
	if last {
		b = append(b, "Connection: close\r\n"...)
	}
	b = append(b, "\r\n"...)
	if bodiless {
		_, err := conn.Write(b)
		return err
	}
	return s.sendBody(conn, r, b, a)
}

// sendBody writes what b, r's buffer, holds and a's body behind it.
//
//lard:noalloc
func (s *Server) sendBody(w io.Writer, r *response, b []byte, a *answer) error {
	if a.doc == nil {
		_, err := w.Write(append(b, a.own.body...))
		return err
	}
	n, writes, err := a.doc.send(w, r, b)
	s.writes.Add(writes) // first: Stats that sees the bytes sees their Writes
	s.bytesSent.Add(n)
	if err == nil && n != a.doc.size {
		shortWrite(n, a.doc.size)
	}
	// On an error the peer went away mid-transfer; nothing further to do
	// but, in the loop, to close.
	return err
}

//go:noinline
func shortWrite(n, size int64) {
	panic(fmt.Sprintf("backend: wrote %d of %d bytes of a document", n, size))
}

// dateLine is a Date field as it stood in second sec.
type dateLine struct {
	sec  int64
	line []byte
}

// appendDate appends the Date field, formatted at most once a second.
//
//lard:noalloc
func (s *Server) appendDate(b []byte) []byte {
	now := time.Now()
	d := s.date.Load()
	if d == nil || d.sec != now.Unix() {
		d = s.newDate(now)
	}
	return append(b, d.line...)
}

//go:noinline
func (s *Server) newDate(now time.Time) *dateLine {
	d := &dateLine{sec: now.Unix(), line: now.UTC().AppendFormat([]byte("Date: "), http.TimeFormat+"\r\n")}
	s.date.Store(d)
	return d
}

// takesOver reports whether r, a connection's first request as net/http
// parsed it, is one the loop answers: nothing of it is left unread behind
// its head. The loop keeps the connection open after it unless r.Close;
// for a head the loop parsed itself the rule is RequestHead.KeepsOpen,
// which does not ask about the method: a bodiless DELETE gets its 405 and
// the session goes on.
func takesOver(r *http.Request) bool {
	return r.ProtoMajor == 1 && r.ProtoMinor == 1 && (r.Method == http.MethodGet || r.Method == http.MethodHead) &&
		r.ContentLength == 0 && len(r.Header["Expect"]) == 0
}

// headTimeout is how long the server r arrived through gives a request
// head from its first byte, as net/http reads its own fields; 0 is for
// ever.
func headTimeout(r *http.Request) time.Duration {
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	switch {
	case srv == nil:
		return 0
	case srv.ReadHeaderTimeout != 0:
		return srv.ReadHeaderTimeout
	}
	return srv.ReadTimeout
}

// requestPath is the document a request target names, what net/http gives
// a handler as r.URL.Path: the query stripped, an absolute-form target
// reduced to its path, percent-escapes decoded. An absolute path with no
// '%' and no '?' in it, every target the front end's clients send but a
// freak, is its own path and does not go through net/url. A target with a
// space or a control byte in it names nothing: net/http refuses those.
//
//lard:noalloc
func requestPath(target string) (path string, ok bool) {
	plain := len(target) > 0 && target[0] == '/'
	for i := 0; i < len(target); i++ {
		switch c := target[i]; {
		case c <= ' ' || c == 0x7f:
			return "", false
		case c == '%' || c == '?':
			plain = false
		}
	}
	if plain {
		return target, true
	}
	return parsedPath(target)
}

//go:noinline
func parsedPath(target string) (string, bool) {
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return "", false
	}
	return u.Path, true
}

// serveSession is the node's own loop over a connection taken over from
// net/http: it writes a, the answer to the request net/http read (last if
// that one asked for a close), then reads heads through br (net/http's
// reader, with whatever it had buffered) and answers them, until the peer
// goes, a write fails, or a request arrives that the loop cannot see the end
// of or that asks for a close. That one is answered with Connection: close
// and nothing is read behind its head. A head that does not parse gets a 400
// and a close. A head, once begun, has timeout to arrive in (0: no limit),
// and one that runs out of it gets no answer, as net/http gives none.
//
// Between requests a session may idle for as long as its peer likes, unless
// the conn bounds that itself (IdleTimeout, asked for by method like
// NextSession below, and asked again at every session): a connection a
// front end passed by descriptor has no front end left to end it, so the
// bound the front end sent with it does, and the loop closes it when that
// runs out before a next request's first byte.
//
// A conn that can answer its client directly (direct: handoff's split
// sessions and passed connections) is told so before the first answer and
// given each answer's end after it: a split session's response then goes to
// the client's own socket, and a done record to the front end in its place.
//
// EOF where a head would begin is the peer ending the session: on a
// handed-off connection, the end-of-session record, or a passed client's
// close. A conn that can be its transport's next session (handoff's, asked
// for by method so that nothing here imports it) becomes that, whether the
// next is framed, split or passed, and the loop goes on with the next
// client's requests; it returns, and closes, when there is no next session.
//
//lard:noalloc
func (s *Server) serveSession(conn net.Conn, br *bufio.Reader, timeout time.Duration, a answer, bodiless, last bool) {
	defer conn.Close()
	s.takeovers.Add(1)
	s.loopSessions.Add(1)
	next, _ := conn.(interface{ NextSession() error })
	idle := idleTimeout(conn)
	d, _ := conn.(direct)
	if d != nil {
		d.Direct()
	}
	var raw []byte // the loop's scratch for a head's bytes
	for {
		if !s.respond(conn, d, &a, bodiless, last) {
			return
		}
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		for _, err := br.Peek(1); err != nil; _, err = br.Peek(1) {
			if err != io.EOF || next == nil || next.NextSession() != nil {
				return
			}
			s.loopSessions.Add(1)
			if idle = idleTimeout(conn); idle > 0 {
				conn.SetReadDeadline(time.Now().Add(idle))
			}
		}
		var deadline time.Time
		if timeout > 0 {
			deadline = time.Now().Add(timeout)
			conn.SetReadDeadline(deadline)
		} else if idle > 0 {
			conn.SetReadDeadline(time.Time{})
		}
		h, err := httprelay.ReadRequestHeadInto(br, maxHeadBytes, raw)
		path, ok := "", err == nil
		if ok {
			path, ok = requestPath(h.Target)
		}
		if !ok {
			if timeout == 0 || time.Now().Before(deadline) {
				s.respond(conn, d, &badRequest, false, true)
			}
			return
		}
		if timeout > 0 {
			conn.SetReadDeadline(time.Time{})
		}
		raw = h.Raw[:0]
		a, bodiless, last = s.decide(h.Method, path), h.Method == http.MethodHead, !h.KeepsOpen()
	}
}

// idleTimeout is how long conn's session may wait for its next request,
// where the conn bounds that (IdleTimeout): 0 for no bound.
func idleTimeout(conn net.Conn) time.Duration {
	if c, ok := conn.(interface{ IdleTimeout() time.Duration }); ok {
		return c.IdleTimeout()
	}
	return 0
}

// direct is a conn on which the loop answers a client directly where it
// can (handoff's split sessions and passed connections, asked for by
// method): Direct before the first answer, Answered after each.
type direct interface {
	Direct()
	Answered(open bool) error
}

// respond writes a, reports it where conn answers its client directly, and
// says whether the session goes on behind it.
//
//lard:noalloc
func (s *Server) respond(conn net.Conn, d direct, a *answer, bodiless, last bool) bool {
	err := s.answerConn(conn, a, bodiless, last)
	if d != nil && d.Answered(err == nil && !last) != nil {
		return false
	}
	return err == nil && !last
}

// maxHeadBytes bounds a request head in the loop; net/http's own default.
const maxHeadBytes = http.DefaultMaxHeaderBytes
