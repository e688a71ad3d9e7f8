// Package poolfix is the poolpair fixture: acquire/release shapes over
// pooled readers, a mock back-end pool, and dialed conns — leaks on
// error arms, double releases, releases of never-acquired resources,
// ownership transfers that must NOT be flagged, and cross-function
// releases proven through interprocedural summaries.
package poolfix

import (
	"bufio"
	"net"

	"lard/internal/httprelay"
)

// --- mocks mirroring internal/frontend's shapes ---

// backendConn is the pooled unit: transport, reader, and the framing
// writer built over the same transport, travelling together.
type backendConn struct {
	c     net.Conn
	br    *bufio.Reader
	w     *writer
	owner *session // set while parked for a client connection
}

// close releases the transport's parts.
func (b *backendConn) close() {
	b.c.Close()
	httprelay.PutReader(b.br)
}

func newBackendConn(c net.Conn) *backendConn {
	return &backendConn{c: c, br: httprelay.GetReader(c), w: newWriter(c)}
}

// writer retains its conn, as handoff.SessionWriter does.
type writer struct{ c net.Conn }

func newWriter(c net.Conn) *writer { return &writer{c: c} }

func (w *writer) handoff() error { return nil }

func (w *writer) write() error { return nil }

type backendPool struct{}

// session stands in for the client connection a checkout is made for.
type session struct{}

func (p *backendPool) get(node int, owner *session) (*backendConn, bool) { return nil, false }

func (p *backendPool) put(b *backendConn) {}

func dialBackend(node int) (net.Conn, error) { return nil, nil }

func ping(c net.Conn) error { return nil }

func flaky() bool { return false }

// --- leaks ---

// leakOnError forgets the reader on the error arm.
func leakOnError(c net.Conn) error {
	br := httprelay.GetReader(c)
	if err := ping(c); err != nil {
		return err // want `pooled reader br \(line \d+\) is not released on this path`
	}
	httprelay.PutReader(br)
	return nil
}

// dialLeak loses the dialed conn on the second early return.
func dialLeak() error {
	c, err := dialBackend(0)
	if err != nil {
		return err
	}
	if flaky() {
		return nil // want `dialed conn c \(line \d+\) is not released`
	}
	return c.Close()
}

// discarded drops acquire results on the floor.
func discarded(c net.Conn) {
	httprelay.GetReader(c)     // want `pooled reader from httprelay.GetReader is discarded`
	_ = httprelay.GetReader(c) // want `is discarded \(assigned to _\)`
}

// overwritten reuses the variable while the first reader is live.
func overwritten(c net.Conn) {
	br := httprelay.GetReader(c)
	br = httprelay.GetReader(c) // want `pooled reader br \(line \d+\) is overwritten before being released`
	httprelay.PutReader(br)
}

// --- double release and release-of-unacquired ---

// doubleRelease recycles the reader twice.
func doubleRelease(c net.Conn) {
	br := httprelay.GetReader(c)
	httprelay.PutReader(br)
	httprelay.PutReader(br) // want `pooled reader br \(line \d+\) may already have been released`
}

// releaseUnacquired returns the transport on the arm where get said no.
func releaseUnacquired(p *backendPool) {
	b, ok := p.get(0, nil)
	if !ok {
		p.put(b) // want `pooled transport b \(line \d+\) is released on a path where it was never acquired`
		return
	}
	p.put(b)
}

// --- correct shapes: no findings ---

// okGated releases the transport exactly when the acquire succeeded.
func okGated(p *backendPool) {
	if b, ok := p.get(1, nil); ok {
		p.put(b)
	}
}

// closedNotPooled retires a checked-out transport through its own close.
func closedNotPooled(p *backendPool) {
	if b, ok := p.get(1, nil); ok {
		b.close()
	}
}

// deferredRelease is the canonical defer shape.
func deferredRelease(c net.Conn) error {
	br := httprelay.GetReader(c)
	defer httprelay.PutReader(br)
	return ping(c)
}

// errGatedClose releases via the resource's own Close method.
func errGatedClose() error {
	c, err := dialBackend(2)
	if err != nil {
		return err
	}
	defer c.Close()
	return ping(c)
}

// --- ownership transfer: adoption must not be flagged ---

type owner struct {
	c  net.Conn
	br *bufio.Reader
}

// adoptedAtBirth builds the owner around the acquire itself — the
// rehandoff.go backendConn shape. No finding.
func adoptedAtBirth(c net.Conn) *owner {
	return &owner{c: c, br: httprelay.GetReader(c)}
}

// handedOff stores a tracked reader into a struct: the owner carries
// the obligation from there. No finding.
func handedOff(c net.Conn) *owner {
	br := httprelay.GetReader(c)
	return &owner{c: c, br: br}
}

// capturedByClosure gives the reader to the closure. No finding here.
func capturedByClosure(c net.Conn) func() {
	br := httprelay.GetReader(c)
	return func() { httprelay.PutReader(br) }
}

// --- cross-function release via interprocedural summaries ---

// recycle always releases its argument (summary: releases-always).
func recycle(br *bufio.Reader) {
	httprelay.PutReader(br)
}

// releaseViaHelper is clean: recycle's summary discharges the
// obligation.
func releaseViaHelper(c net.Conn) {
	br := httprelay.GetReader(c)
	recycle(br)
}

// peek only reads its argument (summary: borrows).
func peek(br *bufio.Reader) {
	_, _ = br.Peek(1)
}

// borrowIsNotARelease leaks: a borrowing helper leaves the obligation
// with the caller.
func borrowIsNotARelease(c net.Conn) { // want `pooled reader br \(line \d+\) is not released`
	br := httprelay.GetReader(c)
	peek(br)
}

// maybeRecycle releases on some paths only (summary: releases-some).
func maybeRecycle(br *bufio.Reader, drop bool) {
	if drop {
		httprelay.PutReader(br)
	}
}

// halfReleased proves nothing either way: the conservative summary
// stops tracking, so neither a leak nor a double release is reported.
func halfReleased(c net.Conn, drop bool) {
	br := httprelay.GetReader(c)
	maybeRecycle(br, drop)
}

// --- acquire through a wrapper (summary: returns-acquired) ---

// fresh acquires on every return path.
func fresh(c net.Conn) *bufio.Reader {
	return httprelay.GetReader(c)
}

// wrapperLeak is tracked through fresh's summary.
func wrapperLeak(c net.Conn) { // want `resource acquired via fresh br \(line \d+\) is not released`
	br := fresh(c)
	_ = br.Buffered()
}

// wrapperReleased is the clean shape.
func wrapperReleased(c net.Conn) {
	br := fresh(c)
	httprelay.PutReader(br)
}

// --- the attach shape: checkout or dial, one owner either way ---

// attach mirrors connectBackend: a pool checkout unless fresh — resumed
// with a plain write when it is the owner's own parked transport, handed
// off to through a helper otherwise — else a dial adopted at birth by a
// new backendConn; a transport whose write fails is closed, the other
// returned to the caller. No finding.
func attach(p *backendPool, owner *session, fresh bool) (*backendConn, error) {
	if !fresh {
		if b, ok := p.get(0, owner); ok {
			var err error
			if b.owner != nil {
				err = b.w.write()
			} else {
				err = handoffTo(b)
			}
			if err == nil {
				return b, nil
			}
			b.close()
		}
	}
	c, err := dialBackend(0)
	if err != nil {
		return nil, err
	}
	b := newBackendConn(c)
	if err := handoffTo(b); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// handoffTo only writes through its argument (summary: borrows).
func handoffTo(b *backendConn) error { return b.w.handoff() }

// attachLeaksStale forgets the checked-out transport whose handoff
// failed before it dials a fresh one.
func attachLeaksStale(p *backendPool) (*backendConn, error) {
	if b, ok := p.get(0, nil); ok {
		if err := b.w.handoff(); err == nil {
			return b, nil
		}
	}
	c, err := dialBackend(0)
	if err != nil {
		return nil, err // want `pooled transport b \(line \d+\) is not released on this path`
	}
	return newBackendConn(c), nil // want `pooled transport b \(line \d+\) is not released on this path`
}

// attachDialLeak builds the writer but returns before any owner holds
// the dialed conn's close.
func attachDialLeak() (*writer, error) {
	c, err := dialBackend(0)
	if err != nil {
		return nil, err
	}
	if err := ping(c); err != nil {
		return nil, err // want `dialed conn c \(line \d+\) is not released`
	}
	return newWriter(c), nil
}

// attachFreshLeak forgets the transport built around the dialed conn
// when its first handoff fails: newBackendConn adopted the conn at
// birth, so nobody else closes it or recycles its reader.
func attachFreshLeak() (*backendConn, error) {
	c, err := dialBackend(0)
	if err != nil {
		return nil, err
	}
	b := newBackendConn(c)
	if err := handoffTo(b); err != nil {
		return nil, err // want `fresh transport b \(line \d+\) is not released on this path`
	}
	return b, nil
}
