// Package backend implements the live prototype's back-end server
// (Section 6): an HTTP server with an in-memory document cache that
// emulates the paper's Apache back ends. Cache misses pay an emulated disk
// delay derived from the simulator's cost model, so a cluster of these
// back ends exhibits the cache-aggregation behaviour the paper measures —
// on a laptop, over loopback TCP.
package backend

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"

	"lard/internal/trace"
)

// DocStore is the back end's synthetic document database: a catalog of
// targets with sizes, whose content is generated deterministically from
// the target name (so any node serves byte-identical documents and
// integrity can be checked end to end).
type DocStore struct {
	mu   sync.RWMutex
	docs map[string]*document
}

// document is what serving a target takes, worked out once per document
// rather than once per request. The handler shares contentLength between
// responses as a header value: it is never written to.
type document struct {
	size          int64
	contentLength []string
	block         []byte
}

// NewDocStore builds a store serving the targets of a trace catalog.
func NewDocStore(targets []trace.Target) *DocStore {
	s := &DocStore{docs: make(map[string]*document, len(targets))}
	for _, t := range targets {
		s.Add(t.Name, t.Size)
	}
	return s
}

// lookup returns the document at target, if it exists.
func (s *DocStore) lookup(target string) (*document, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[target]
	return d, ok
}

// Add inserts or replaces a document.
func (s *DocStore) Add(target string, size int64) {
	d := &document{size: size, contentLength: []string{strconv.FormatInt(size, 10)}, block: contentBlock(target)}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs[target] = d
}

// Len returns the number of documents.
func (s *DocStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// Targets returns the catalog sorted by name, for tests and tools.
func (s *DocStore) Targets() []trace.Target {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]trace.Target, 0, len(s.docs))
	for name, d := range s.docs {
		out = append(out, trace.Target{Name: name, Size: d.size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ContentReader streams the deterministic content of a target: a repeating
// 64-byte block derived from the target name, truncated to size. Content
// never needs to be stored, so multi-GB catalogs cost no memory.
func ContentReader(target string, size int64) io.Reader {
	return &contentReader{block: contentBlock(target), remaining: size}
}

// ContentBytes materializes the deterministic content (for tests and small
// documents).
func ContentBytes(target string, size int64) []byte {
	buf := make([]byte, size)
	if _, err := io.ReadFull(ContentReader(target, size), buf); err != nil {
		panic(fmt.Sprintf("backend: content generation: %v", err))
	}
	return buf
}

// contentBlock derives the repeating unit from the target name.
func contentBlock(target string) []byte {
	h := fnv.New64a()
	h.Write([]byte(target))
	seed := h.Sum64()
	block := make([]byte, 64)
	for i := 0; i < len(block); i += 8 {
		binary.BigEndian.PutUint64(block[i:], seed)
		seed = seed*6364136223846793005 + 1442695040888963407
	}
	return block
}

// responsePool recycles what a response is written from. A request holds
// one from its answer's first byte to its last; a session waiting for its
// next request holds none. A new one has room for the iovecs of a response
// up to 1 MiB, so that one the pool dropped costs two allocations to
// replace, not a slice grown an iovec at a time.
var responsePool = sync.Pool{New: func() any { return &response{iov: make([][]byte, 0, 1<<20/copyBufLen+1)} }}

// copyBufLen holds every 8 KB workload's response whole, and a longer one's
// head and the first period of its body (layout). A reader that stalls
// mid-response holds one.
const copyBufLen = 32 << 10

// headRoom is more than the longest head answerConn writes for a document
// (a MISS, Connection: close and a 19-digit length: 167 bytes), so that a
// document up to copyBufLen - headRoom fits the buffer with its head.
const headRoom = 256

// response is the scratch one response is written from: buf, where its head
// and as much of its body as send puts there are assembled, and the iovecs
// a longer body leaves in, every one of them in buf.
type response struct {
	buf [copyBufLen]byte
	iov [][]byte    // the iovecs' backing array, as long as the longest response has needed
	vec net.Buffers // iov, as WriteBuffers consumes it
}

// vectored is a conn that writes a response's iovecs in one writev
// (handoff's passed connections and sessions, asked for by method).
type vectored interface {
	WriteBuffers(v *net.Buffers) (int64, error)
}

// send writes what b holds (a response head, or nothing; b is r.buf's) and
// the document's content behind it. A response that fits the buffer leaves
// in one Write. A longer one's iovecs (layout) leave in one WriteBuffers
// where w is vectored, else a Write each, as net/http's writer takes them.
// It returns the bytes of content written and the writes made.
//
//lard:noalloc
func (d *document) send(w io.Writer, r *response, b []byte) (body, writes int64, err error) {
	head := len(b)
	if d.size <= int64(cap(b)-head) {
		n, err := w.Write(d.fill(b, int(d.size)))
		return int64(max(0, n-head)), 1, err
	}
	r.iov = d.layout(r.iov[:0], b)
	var n int64
	if vw, ok := w.(vectored); ok {
		r.vec = r.iov
		n, err = vw.WriteBuffers(&r.vec)
		writes = 1
	} else {
		for i := 0; err == nil && i < len(r.iov); i++ {
			m, werr := w.Write(r.iov[i])
			n, writes, err = n+int64(m), writes+1, werr
		}
	}
	return max(0, n-int64(head)), writes, err
}

// layout appends to iov the response whose head b holds: b's buffer filled
// behind the head with the body's first period, the room left in whole
// content blocks so that every repeat of it starts where the content's
// period does, and then that period again as often as the body needs, the
// last cut short. The first iovec is the head and the first period. There
// are ⌈size ÷ period⌉, none empty, every one in b's buffer, which the CPU
// keeps in its cache however long the body.
//
//lard:noalloc
func (d *document) layout(iov [][]byte, b []byte) [][]byte {
	head, period := len(b), cap(b)-len(b)
	period -= period % len(d.block)
	b = d.fill(b, int(min(int64(period), d.size)))
	iov = append(iov, b)
	for rest := d.size - int64(len(b)-head); rest > 0; rest -= int64(period) {
		iov = append(iov, b[head:head+int(min(int64(period), rest))])
	}
	return iov
}

// fill appends the document's first n bytes to b, which has room for them.
//
//lard:noalloc
func (d *document) fill(b []byte, n int) []byte {
	r := contentReader{block: d.block, remaining: int64(n)}
	m, _ := r.Read(b[len(b) : len(b)+n])
	return b[:len(b)+m]
}

type contentReader struct {
	block     []byte
	offset    int
	remaining int64
}

func (r *contentReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.remaining {
		p = p[:r.remaining]
	}
	// One period of the content from the current offset — the block,
	// rotated — then doubling: everything after a whole period repeats
	// what precedes it, so p fills in log2(len(p)/64) copies, not one per
	// block.
	n := copy(p, r.block[r.offset:])
	n += copy(p[n:], r.block[:r.offset])
	for n < len(p) {
		n += copy(p[n:], p[:n])
	}
	r.offset = (r.offset + n) % len(r.block)
	r.remaining -= int64(n)
	return n, nil
}
