package frontend

import (
	"io"
	"sync"

	"lard/internal/handoff"
)

// rawClients recycles the readers of clientReader, whose callbacks are
// built once per reader, so that a connection allocates none.
var rawClients = sync.Pool{New: func() any { return new(handoff.RawIO) }}

// clientReader is what the relay loop reads a client's requests through:
// a TCP client's socket, a clientSocket's or a net.TCPConn's, read with raw
// calls (handoff.RawIO), which keep the loop's per-request reads out of the
// scheduler. The connection's deadlines, and every error the loop
// classifies (headReadFailed), are those of a plain Read.
type clientReader struct{ raw *handoff.RawIO }

// open returns the reader for cc: a raw one where cc is a TCP connection,
// cc itself otherwise.
func (r *clientReader) open(cc *clientConn) io.Reader {
	if cc.rc == nil {
		return cc.Conn
	}
	r.raw = rawClients.Get().(*handoff.RawIO)
	r.raw.Reset(cc.rc)
	return r.raw
}

// close gives the raw reader back, once the loop reads no more.
func (r *clientReader) close() {
	if r.raw != nil {
		r.raw.Reset(nil)
		rawClients.Put(r.raw)
		r.raw = nil
	}
}
