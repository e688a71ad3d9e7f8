package handoff

import (
	"bytes"
	"net"
	"sync"
	"time"

	"lard/internal/httprelay"
)

// responseWriter is the back end's end of the transport in the response
// direction, shared by both conn types: the raw connection (whose Read,
// Close and RemoteAddr they replace) with its writes gathered. It gives the server's writes the front end's rule
// (httprelay's "one window, one write"): a length-delimited response whose
// head and body together fit the window leaves in one Write, whole, however
// the server cut it up. net/http's 4 KB buffer sends an 8 KB response as
// 4096 bytes and the rest, and each segment costs the front end a read and
// a wake-up; the front end holds such a response whole before it writes the
// client a byte, so holding it here delays nothing a client can see.
//
// Every other byte leaves with the Write that brought it: a 1xx, 204 or 304
// head; a response longer than the window (its body is counted through, so
// that the next head is found); and, from the first chunked or
// close-delimited response, or the first bytes that are no HTTP response at
// all, the rest of the session: the writer stops framing.
//
// Nothing stays held once the server turns to its read side or closes:
// Read, SetReadDeadline, SetDeadline and Close first send what is held. A
// server that writes and then waits for its peer is never waited for, and
// the one response whose length its head cannot tell (Content-Length and no
// body, to a HEAD) leaves when net/http sets the read deadline it sets
// after every response. net/http also reads in the background while a
// handler writes, hence the mutex.
type responseWriter struct {
	net.Conn

	mu   sync.Mutex
	off  bool    // framing stopped for the rest of the session
	held *[]byte // from holdPool: one response from its first byte, incomplete; nil when nothing is held
	scan httprelay.HeadScan
	// total is the held response's length, head and body, once its head is
	// whole; skip is what is still to come of a body written through.
	total int
	skip  int64
	// resync marks skip as a guess: the server turned to its read side with
	// body still due, and if there is none (HEAD) a head comes next.
	resync bool
}

// holdPool recycles hold buffers, so that only a session with a response
// in flight has one.
var holdPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, httprelay.ReaderSize)
		return &b
	},
}

var httpPrefix = []byte("HTTP/")

// Write sends p, behind what is held, short of the front of a response
// that is to be held: at most one write to the transport.
//
//lard:noalloc
func (w *responseWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := p
	if w.held != nil {
		*w.held = append(*w.held, p...)
		b = *w.held
	}
	send := len(b) - w.frameLocked(b)
	if send > 0 {
		if _, err := w.Conn.Write(b[:send]); err != nil {
			w.off = true
			w.releaseLocked()
			return 0, err
		}
	}
	if send == len(b) {
		w.releaseLocked()
	} else if send > 0 || w.held == nil {
		if w.held == nil {
			w.held = holdPool.Get().(*[]byte)
		}
		*w.held = append((*w.held)[:0], b[send:]...)
	}
	return len(p), nil
}

// frameLocked advances the writer's position over b, the bytes in hand,
// and returns how many of them, at b's end, are the front of a response to
// hold.
//
//lard:noalloc
func (w *responseWriter) frameLocked(b []byte) (hold int) {
	if w.resync && bytes.HasPrefix(b, httpPrefix) {
		w.skip = 0
	}
	w.resync = false
	for len(b) > 0 && !w.off {
		switch {
		case w.skip > 0:
			n := min(w.skip, int64(len(b)))
			w.skip, b = w.skip-n, b[n:]
		case w.total > len(b):
			return len(b)
		case w.total > 0:
			b, w.total = b[w.total:], 0
		case !bytes.HasPrefix(b, httpPrefix[:min(len(b), len(httpPrefix))]):
			w.off = true
		default:
			end := w.scan.End(b)
			if end == 0 && len(b) < httprelay.ReaderSize {
				return len(b) // a head still growing
			}
			h, err := httprelay.ParseResponseHead(b[:end])
			w.scan = httprelay.HeadScan{}
			switch {
			case err == nil && h.BodilessStatus():
				b = b[end:]
			case err != nil || h.Chunked || h.ContentLength < 0:
				w.off = true
			case h.ContentLength > int64(httprelay.ReaderSize-end):
				w.skip, b = h.ContentLength, b[end:]
			default:
				w.total = end + int(h.ContentLength)
			}
		}
	}
	return 0
}

// flushLocked sends what is held, early. A transport that fails here fails
// the server's next Write too, which is where the server hears of it.
func (w *responseWriter) flushLocked() {
	if w.held != nil {
		w.Conn.Write(*w.held)
		w.off = w.total == 0 // half a head is out: the position is lost
		w.skip, w.total = int64(max(0, w.total-len(*w.held))), 0
		w.releaseLocked()
	}
	w.resync = w.skip > 0
}

func (w *responseWriter) releaseLocked() {
	if w.held != nil {
		holdPool.Put(w.held)
		w.held = nil
	}
}

// resetFramingLocked is for the next session on the same transport, after a
// flush: "the rest of the session" is over, and what one session's responses
// were says nothing of the next one's.
func (w *responseWriter) resetFramingLocked() {
	w.off, w.skip, w.total, w.resync, w.scan = false, 0, 0, false, httprelay.HeadScan{}
}

// flush is what every read-side call begins with.
func (w *responseWriter) flush() {
	w.mu.Lock()
	w.flushLocked()
	w.mu.Unlock()
}

// closeFlush is flush for Close, which may come from another goroutine
// while a Write is stuck behind a peer that stopped reading: it must get
// through to close the transport, and that Write's bytes are lost anyway.
func (w *responseWriter) closeFlush() {
	if w.mu.TryLock() {
		//lard:allow lockheld — TryLock took it
		w.flushLocked()
		w.mu.Unlock()
	}
}

func (w *responseWriter) SetDeadline(t time.Time) error {
	w.flush()
	return w.Conn.SetDeadline(t)
}

func (w *responseWriter) SetReadDeadline(t time.Time) error {
	w.flush()
	return w.Conn.SetReadDeadline(t)
}
