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

// copyBufPool and largeBufPool recycle the buffers a response is assembled
// and a document's content generated in (responseBuf picks one). A request
// holds one from its answer's first byte to its last; a session waiting for
// its next request holds none.
var (
	copyBufPool  = sync.Pool{New: func() any { return newBuf(copyBufLen) }}
	largeBufPool = sync.Pool{New: func() any { return newBuf(largeBufLen) }}
)

// copyBufLen holds every 8 KB workload's response. largeBufLen is the most
// one Write carries: the pipe the Go runtime sizes every splice to, so the
// front end can move it in one, and handoff.MaxFrameLen. A reader that
// stalls mid-response holds largeBufLen where it held copyBufLen, the bound
// the front end's splice pipe already has per relay in flight.
const copyBufLen, largeBufLen = 32 << 10, 1 << 20

// headRoom is more than the longest head answerConn writes for a document
// (a MISS, Connection: close and a 19-digit length: 167 bytes), so that a
// document that takes the 32 KB buffer fits it with its head.
const headRoom = 256

func newBuf(n int) *[]byte {
	b := make([]byte, n)
	return &b
}

// responseBuf is the buffer a's response leaves from: the 32 KB one if the
// response fits it, the large one if not, so that a document up to 1 MiB
// goes in one Write and a longer one in 1 MiB Writes. A HEAD, or an answer
// without a document, never takes the large one. putBuf gives it back.
//
//lard:noalloc
func responseBuf(a *answer, bodiless bool) *[]byte {
	if !bodiless && a.doc != nil && a.doc.size > copyBufLen-headRoom {
		return largeBufPool.Get().(*[]byte)
	}
	return copyBufPool.Get().(*[]byte)
}

//lard:noalloc
func putBuf(bp *[]byte) {
	if cap(*bp) == largeBufLen {
		largeBufPool.Put(bp)
	} else {
		copyBufPool.Put(bp)
	}
}

// send writes what b holds (a response head, or nothing) and the document's
// content behind it, generated in the rest of b's backing array: the head
// and all of the body that fits beside it leave in one Write, what is left
// a buffer at a time. Given responseBuf's buffer that is one Write for a
// response up to its size. It returns the bytes of content written and the
// Writes made.
//
//lard:noalloc
func (d *document) send(w io.Writer, b []byte) (body, writes int64, err error) {
	for r := (contentReader{block: d.block, remaining: d.size}); err == nil && (r.remaining > 0 || len(b) > 0); b = b[:0] {
		n, _ := r.Read(b[len(b):cap(b)])
		n, err = w.Write(b[:len(b)+n])
		body += int64(max(0, n-len(b)))
		writes++
	}
	return body, writes, err
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
