package httprelay

import (
	"bufio"
	"io"
	"sync"
)

// This file is the relay's copy machinery: one window, one write.
//
// The unit of work is the connection reader's window — the 16 KiB
// (ReaderSize) a pooled bufio.Reader holds, or whatever size the caller's
// reader has. Heads are parsed in place in it (readHead), and a
// length-delimited message leaves it window by window, each window in one
// Write straight from the reader's buffer (relayLength):
//
//   - A message that fits the window, head and body, is awaited whole and
//     sent in one Write. The cost that matters here is not the copy but
//     the trips to the socket — on loopback every write also runs the
//     receiver's TCP input path — and a head write, a buffered-prefix
//     write and a splice for the last few KB were three trips where the
//     window makes one. Waiting costs no latency the client could use (it
//     cannot act on a partial small response) and buys a guarantee: if the
//     back end dies mid-body, no byte of the response has reached the
//     client, which can still be told 502 or retried elsewhere.
//   - A longer message streams: head and first window in one Write, and a
//     remainder of at most one more window the same way.
//   - Only a remainder longer than a window leaves the reader: it is
//     copied from the raw connection through an io.LimitedReader, the
//     shape TCPConn.ReadFrom recognizes, so the kernel splice path can
//     engage when both ends are TCP (a bufio.Reader in between hides it).
//     Below a window splice loses: setting up the pipe pair costs more
//     system calls than the one read and one write it replaces.
//
// Chunked and close-delimited bodies keep their own loops (chunked.go,
// copyBody); io.Copy-style copies borrow a pooled buffer, so steady-state
// relaying allocates nothing per message.

// copyBufSize matches io.Copy's internal buffer size.
const copyBufSize = 32 << 10

// copyBufPool recycles the relay's copy buffers.
var copyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, copyBufSize)
		return &b
	},
}

// copyBuffered is io.Copy with a pooled buffer. Like io.Copy it defers
// to src.WriteTo / dst.ReadFrom when available — the pooled buffer is
// then unused and the kernel path (splice/sendfile) may engage.
//
//lard:noalloc
func copyBuffered(dst io.Writer, src io.Reader) (int64, error) {
	bp := copyBufPool.Get().(*[]byte)
	n, err := io.CopyBuffer(dst, src, *bp)
	copyBufPool.Put(bp)
	return n, err
}

// limitedReaderPool recycles the io.LimitedReader wrappers copyNBuffered
// builds per body copy; io.LimitReader would heap-allocate one each call.
var limitedReaderPool = sync.Pool{
	New: func() any { return new(io.LimitedReader) },
}

// copyNBuffered is io.CopyN with a pooled buffer: exactly n bytes or an
// error, io.EOF when src ends early (io.CopyN's contract). The
// *io.LimitedReader it hands to copyBuffered is the shape
// TCPConn.ReadFrom recognizes for a bounded splice — and it comes from a
// pool, so a content-length body copy allocates nothing here.
//
//lard:noalloc
func copyNBuffered(dst io.Writer, src io.Reader, n int64) (int64, error) {
	lr := limitedReaderPool.Get().(*io.LimitedReader)
	lr.R, lr.N = src, n
	written, err := copyBuffered(dst, lr)
	lr.R = nil
	limitedReaderPool.Put(lr)
	if written == n {
		return written, nil
	}
	if written < n && err == nil {
		// src stopped early with a clean EOF inside the declared length.
		err = io.EOF
	}
	return written, err
}

// ReaderSize is the relay's standard bufio.Reader capacity, shared by
// every connection-wrapping reader the relay stack pools: the window. The
// back end's end of the transport (internal/handoff) holds a response that
// fits it, so that it arrives here in one segment.
const ReaderSize = 16 << 10

// readerPool recycles connection readers across connections and
// sessions; see GetReader.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, ReaderSize) },
}

// GetReader returns a pooled 16 KiB bufio.Reader reset to r. The relay
// stack (front-end client and back-end conns, handoff transports, the
// P-HTTP load generator) churns through one such reader per connection;
// pooling them keeps connection setup allocation-free in steady state.
//
//lard:noalloc
func GetReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	//lard:allow noalloc — inlined bufio.Reset cold arm (nil-buf make) never runs: pooled readers always carry their 16 KiB buffer
	br.Reset(r)
	return br
}

// PutReader recycles a reader obtained from GetReader. The caller must
// be the reader's last user: recycle only once no other goroutine can
// read through it. Readers of a different capacity (tests build small
// ones) are dropped rather than pooled.
//
//lard:noalloc
func PutReader(br *bufio.Reader) {
	if br == nil || br.Size() != ReaderSize {
		return
	}
	//lard:allow noalloc — inlined bufio.Reset cold arm (nil-buf make) never runs: the size guard above admits only full-size readers
	br.Reset(nil)
	readerPool.Put(br)
}

// drainBuffered writes everything br has buffered to dst in one Write,
// consuming exactly what was written. It opens a close-delimited copy:
// empty the window — an unconsumed head included — then let the caller
// copy the rest from the raw connection.
//
//lard:noalloc
func drainBuffered(dst io.Writer, br *bufio.Reader) (int64, error) {
	if br.Buffered() == 0 {
		return 0, nil
	}
	peeked, _ := br.Peek(br.Buffered())
	n, err := dst.Write(peeked)
	br.Discard(n)
	return int64(n), err
}

// relayLength forwards the next n bytes of br — a message's unconsumed
// head, if it lies in the window, and its length-delimited body — window
// by window, each in one Write straight from br's buffer; see the file
// comment. A window is awaited in full before it is written: when the
// source fails inside the first one, nothing has been written, and for a
// message that fits the window that is the whole message. A source that
// ends early is io.ErrUnexpectedEOF.
//
//lard:noalloc
func relayLength(dst io.Writer, br *bufio.Reader, raw io.Reader, n int64) (written int64, err error) {
	size := int64(br.Size())
	for first := true; n > 0; first = false {
		if !first && n > size {
			// More than a window to go, and the last full window left br
			// empty: copy from beneath it.
			src := raw
			if src == nil {
				src = br
			}
			m, err := copyNBuffered(dst, src, n)
			return written + m, err
		}
		w, err := br.Peek(int(min(n, size)))
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return written, err
		}
		m, err := dst.Write(w)
		if m < len(w) && err == nil {
			err = io.ErrShortWrite
		}
		br.Discard(m)
		written, n = written+int64(m), n-int64(m)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
