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

type backendPool struct{}

func (p *backendPool) get(node int) (net.Conn, *bufio.Reader, bool) { return nil, nil, false }

func (p *backendPool) put(node int, c net.Conn, br *bufio.Reader) {}

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

// releaseUnacquired returns the pool pair on the arm where get said no.
func releaseUnacquired(p *backendPool) {
	c, br, ok := p.get(0)
	if !ok {
		p.put(0, c, br) // want `pooled transport c \(line \d+\) is released on a path where it was never acquired` `pooled transport br \(line \d+\) is released on a path where it was never acquired`
		return
	}
	p.put(0, c, br)
}

// --- correct shapes: no findings ---

// okGated releases both results exactly when the acquire succeeded.
func okGated(p *backendPool) {
	if c, br, ok := p.get(1); ok {
		p.put(1, c, br)
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

// --- the attach shape: checkout or dial, adopted together with a writer ---

// writer retains its conn, as handoff.SessionWriter does.
type writer struct{ c net.Conn }

func newWriter(c net.Conn) *writer { return &writer{c: c} }

// framed is the rehandoff.go backendConn: transport, reader, and the
// framing writer built over the same transport.
type framed struct {
	c  net.Conn
	br *bufio.Reader
	w  *writer
}

// discard releases an adopted transport's parts.
func discard(f *framed) {
	f.c.Close()
	httprelay.PutReader(f.br)
}

// attach mirrors connectBackend: a pool checkout unless fresh, else a
// dial; either way the parts are adopted at birth by one owner, which
// discard (or the caller) releases. No finding.
func attach(p *backendPool, fresh bool) (*framed, error) {
	if !fresh {
		if c, br, ok := p.get(0); ok {
			f := &framed{c: c, br: br, w: newWriter(c)}
			if err := ping(c); err == nil {
				return f, nil
			}
			discard(f)
		}
	}
	c, err := dialBackend(0)
	if err != nil {
		return nil, err
	}
	f := &framed{c: c, br: httprelay.GetReader(c), w: newWriter(c)}
	if err := ping(c); err != nil {
		discard(f)
		return nil, err
	}
	return f, nil
}

// attachDropsReader adopts the checked-out conn but not its reader.
func attachDropsReader(p *backendPool) *framed {
	if c, br, ok := p.get(0); ok {
		_ = br.Buffered()
		return &framed{c: c, w: newWriter(c)} // want `pooled transport br \(line \d+\) is not released on this path`
	}
	return nil
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
