package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lard/internal/backend"
	"lard/internal/handoff"
	"lard/internal/trace"
)

// epoch is the zero of every span's start and end.
var epoch = time.Now()

func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// span is one traced interval. Spans of one request share Req, the
// request's index in the trace; Parent names the span that caused it.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// doc is what the generator knows about one catalog entry: the bytes it
// sends and the bytes it must get back.
type doc struct {
	keep   []byte // request on a connection that stays open
	last   []byte // request announcing Connection: close
	size   int64
	prefix []byte // first bytes of the content
}

const prefixLen = 64

// generator is the closed-loop client: each of its connections sends the
// next request of the trace only after the previous response has been
// read and verified. Clients share one cursor, which survives from one
// window to the next, so the cluster sees the trace in order and a
// later window continues where the warm-up stopped.
type generator struct {
	tr   *trace.Trace
	docs []doc

	// addrs are the destinations. One address is the front end (or the
	// canned server). Several are the back ends addressed directly: the
	// client then plays the front end's part itself, opening each
	// connection with a handoff header, and picks the node by target so
	// that each document has one home.
	addrs  []string
	direct bool

	reqsPerConn int // 0 = connections never close
	cursor      atomic.Int64

	failMu   sync.Mutex
	failures int
}

func newGenerator(tr *trace.Trace, reqsPerConn int) *generator {
	g := &generator{tr: tr, reqsPerConn: reqsPerConn, docs: make([]doc, len(tr.Targets))}
	for i, t := range tr.Targets {
		n := min(t.Size, prefixLen)
		g.docs[i] = doc{
			keep:   []byte("GET " + t.Name + " HTTP/1.1\r\nHost: lard\r\n\r\n"),
			last:   []byte("GET " + t.Name + " HTTP/1.1\r\nHost: lard\r\nConnection: close\r\n\r\n"),
			size:   t.Size,
			prefix: backend.ContentBytes(t.Name, n),
		}
	}
	return g
}

// toward returns a generator for the same trace, sharing nothing but the
// documents, aimed elsewhere.
func (g *generator) toward(addrs []string, direct bool) *generator {
	return &generator{tr: g.tr, docs: g.docs, reqsPerConn: g.reqsPerConn, addrs: addrs, direct: direct}
}

// window is what one timed run of the generator produced, or several
// added up.
type window struct {
	active    int64   // ns the generator ran
	lats      []int64 // per verified response, ns from before connect (if any) to last body byte
	bytes     int64   // verified body bytes
	attempted int
	failed    int
	connects  []int64 // ns per dial
	ttfbs     []int64 // ns from request written to first response byte
	spans     []span
	cpuUs     int64 // this process's user+sys CPU while it ran
}

func (w *window) seconds() float64 { return float64(w.active) / 1e9 }

// goodput is verified responses per second of running.
func (w *window) goodput() float64 { return float64(len(w.lats)) / w.seconds() }

// add folds another window of the same generator into w.
func (w *window) add(o *window) {
	w.active += o.active
	w.lats = append(w.lats, o.lats...)
	w.bytes += o.bytes
	w.attempted += o.attempted
	w.failed += o.failed
	w.connects = append(w.connects, o.connects...)
	w.ttfbs = append(w.ttfbs, o.ttfbs...)
	w.spans = append(w.spans, o.spans...)
	w.cpuUs += o.cpuUs
}

// run drives clients fresh connections until the limit and closes them.
func (g *generator) run(clients int, d time.Duration, requests int, traced bool) *window {
	cr := g.crew(clients, traced)
	defer cr.close()
	return cr.run(d, requests)
}

// crew is a generator's clients with their connections, which stay open
// from one run to the next: two paths can then take turns of a fraction
// of a second without either paying for new connections each time.
type crew struct {
	g  *generator
	cs []*client
}

func (g *generator) crew(clients int, traced bool) *crew {
	cr := &crew{g: g, cs: make([]*client, clients)}
	for i := range cr.cs {
		cr.cs[i] = &client{g: g, traced: traced, conns: make([]conn, len(g.addrs)), buf: make([]byte, 64<<10)}
	}
	return cr
}

func (cr *crew) close() {
	for _, c := range cr.cs {
		c.closeAll()
	}
}

// run drives the crew until the limit: a duration, or, when requests > 0,
// that many requests. A request in flight at the limit is completed and
// verified. The window holds this run's tallies alone.
func (cr *crew) run(d time.Duration, requests int) *window {
	g := cr.g
	w := &window{}
	start := sinceEpoch()
	cpu0 := selfCPUUs()
	var deadline time.Time // zero when the limit is a request count
	stopAt := int64(math.MaxInt64)
	if requests > 0 {
		stopAt = g.cursor.Load() + int64(requests)
	} else {
		deadline = time.Now().Add(d)
	}
	var wg sync.WaitGroup
	for _, c := range cr.cs {
		c.window = window{lats: c.lats[:0], connects: c.connects[:0], ttfbs: c.ttfbs[:0], spans: c.spans[:0]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for deadline.IsZero() || time.Now().Before(deadline) {
				i := g.cursor.Add(1) - 1
				if i >= stopAt {
					return
				}
				c.request(i)
			}
		}()
	}
	wg.Wait()
	w.active = sinceEpoch() - start
	w.cpuUs = selfCPUUs() - cpu0
	for _, c := range cr.cs {
		w.add(&c.window)
	}
	return w
}

func selfCPUUs() int64 {
	user, sys := cpuTimesUs()
	return user + sys
}

// conn is a client's connection to one destination; c is nil while it is
// closed. The reader outlives the connection so that a workload that
// reconnects per request does not allocate one each time.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	left int // requests before this connection closes; <0 = unbounded
}

// client is one closed-loop connection slot. It is driven by a single
// goroutine.
type client struct {
	g      *generator
	traced bool
	conns  []conn // one per destination
	buf    []byte

	window // this client's tallies; active and cpuUs stay zero
}

func (c *client) closeAll() {
	for i := range c.conns {
		c.drop(i)
	}
}

func (c *client) drop(dest int) {
	if c.conns[dest].c != nil {
		c.conns[dest].c.Close()
		c.conns[dest].c = nil
	}
}

func (c *client) span(name, parent string, req, start, end int64) {
	if c.traced {
		c.spans = append(c.spans, span{Name: name, Parent: parent, Req: req, Start: start, End: end})
	}
}

// request issues trace entry i and verifies the answer.
func (c *client) request(i int64) {
	g := c.g
	ti := g.tr.Requests[i%int64(len(g.tr.Requests))]
	d := &g.docs[ti]
	dest := 0
	if g.direct {
		dest = int(ti) % len(g.addrs)
	}
	c.attempted++
	t0 := sinceEpoch()
	n, err := c.exchange(i, dest, d, t0)
	t1 := sinceEpoch()
	if err != nil {
		c.failed++
		c.drop(dest)
		g.reportFailure(i, g.tr.Targets[ti].Name, err)
		return
	}
	c.bytes += n
	c.lats = append(c.lats, t1-t0)
	c.span("loadgen.request", "", i, t0, t1)
}

func (g *generator) reportFailure(i int64, target string, err error) {
	g.failMu.Lock()
	defer g.failMu.Unlock()
	if g.failures++; g.failures <= 5 {
		fmt.Fprintf(os.Stderr, "bench: request %d (%s) failed: %v\n", i, target, err)
	}
}

// exchange sends one request and reads one response on the connection to
// dest, dialing first when there is none.
func (c *client) exchange(i int64, dest int, d *doc, t0 int64) (int64, error) {
	g := c.g
	cn := &c.conns[dest]
	fresh := cn.c == nil
	if fresh {
		nc, err := net.Dial("tcp", g.addrs[dest])
		if err != nil {
			return 0, err
		}
		if cn.br == nil {
			cn.br = bufio.NewReaderSize(nc, 16<<10)
		} else {
			cn.br.Reset(nc)
		}
		cn.c, cn.left = nc, -1
		if g.reqsPerConn > 0 {
			cn.left = g.reqsPerConn
		}
		t := sinceEpoch()
		c.connects = append(c.connects, t-t0)
		c.span("loadgen.connect", "loadgen.request", i, t0, t)
	}
	req := d.keep
	if cn.left == 1 {
		req = d.last
	}
	cn.c.SetDeadline(time.Now().Add(30 * time.Second))
	tw := sinceEpoch()
	var err error
	if fresh && g.direct {
		// The front end's part: hand the "client connection" off with
		// the request head as the bytes already consumed.
		err = handoff.Send(cn.c, cn.c.LocalAddr().String(), req, 0)
	} else {
		_, err = cn.c.Write(req)
	}
	if err != nil {
		return 0, err
	}
	tr := sinceEpoch()
	c.span("loadgen.write", "loadgen.request", i, tw, tr)
	if _, err := cn.br.Peek(1); err != nil {
		return 0, fmt.Errorf("waiting for response: %w", err)
	}
	tf := sinceEpoch()
	c.ttfbs = append(c.ttfbs, tf-tr)
	c.span("loadgen.ttfb", "loadgen.request", i, tr, tf)

	status, length, closing, err := readResponseHead(cn.br)
	if err != nil {
		return 0, err
	}
	n, err := c.readBody(cn.br, length, d)
	c.span("loadgen.body", "loadgen.request", i, tf, sinceEpoch())
	if err != nil {
		return 0, err
	}
	if status != 200 {
		return 0, fmt.Errorf("status %d", status)
	}
	if cn.left > 0 {
		cn.left--
	}
	if closing || cn.left == 0 {
		c.drop(dest)
	}
	return n, nil
}

// readBody consumes length body bytes and checks them against the
// catalog: the declared length must be the document's, and the content
// must start with the document's own bytes.
func (c *client) readBody(br *bufio.Reader, length int64, d *doc) (int64, error) {
	var n int64
	for n < length {
		m, err := br.Read(c.buf[:min(int64(len(c.buf)), length-n)])
		if n < int64(len(d.prefix)) && m > 0 {
			k := min(int64(m), int64(len(d.prefix))-n)
			if !bytes.Equal(c.buf[:k], d.prefix[n:n+k]) {
				return n, errors.New("content differs from the document's")
			}
		}
		n += int64(m)
		if err != nil {
			return n, fmt.Errorf("body cut at %d of %d bytes: %w", n, length, err)
		}
	}
	if length != d.size {
		return n, fmt.Errorf("length %d, document has %d", length, d.size)
	}
	return n, nil
}

// readResponseHead parses just enough of a response head to frame and
// judge it. It is the benchmark's own parser, not the relay's, so a
// change to the code under test cannot speed the client up.
func readResponseHead(br *bufio.Reader) (status int, length int64, closing bool, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, 0, false, fmt.Errorf("status line: %w", err)
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, 0, false, fmt.Errorf("malformed status line %q", line)
	}
	for _, ch := range line[9:12] {
		if ch < '0' || ch > '9' {
			return 0, 0, false, fmt.Errorf("malformed status line %q", line)
		}
		status = status*10 + int(ch-'0')
	}
	length = -1
	for {
		h, err := br.ReadSlice('\n')
		if err != nil {
			return 0, 0, false, fmt.Errorf("header: %w", err)
		}
		if len(h) <= 2 {
			break
		}
		if v, ok := headerValue(h, "content-length:"); ok {
			length = 0
			for _, ch := range v {
				if ch < '0' || ch > '9' {
					return 0, 0, false, fmt.Errorf("malformed Content-Length %q", v)
				}
				length = length*10 + int64(ch-'0')
			}
		} else if v, ok := headerValue(h, "connection:"); ok && bytes.EqualFold(v, []byte("close")) {
			closing = true
		}
	}
	if length < 0 {
		return 0, 0, false, errors.New("response without Content-Length")
	}
	return status, length, closing, nil
}

// headerValue returns the trimmed value of header line h if its name is
// lname (lower case, colon included).
func headerValue(h []byte, lname string) ([]byte, bool) {
	if len(h) < len(lname) || !bytes.EqualFold(h[:len(lname)], []byte(lname)) {
		return nil, false
	}
	return bytes.TrimSpace(h[len(lname):]), true
}
