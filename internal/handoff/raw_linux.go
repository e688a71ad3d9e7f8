package handoff

import (
	"io"
	"os"
	"syscall"
	"unsafe"
)

// RawIO reads and writes one nonblocking descriptor that is in the
// runtime's poller, a socket or a pipe end, with raw system calls
// (syscall.RawSyscall) made inside its syscall.RawConn's callbacks. A call
// through the syscall package proper enters the scheduler on every read
// and write: it wakes the runtime's sysmon thread whenever the process has
// been idle, and lets sysmon hand the processor to another thread
// mid-call, so a relay loop hops between threads. A raw call does neither.
// It is safe only because the descriptor never blocks: a call that finds
// nothing to read or no room returns EAGAIN at once, and the callback then
// returns false, so that the goroutine waits in the poller, under the
// descriptor's deadlines, as a plain Read or Write does (DESIGN.md, "The
// relay's calls stay out of the scheduler").
//
// Read returns what one read(2) gave, io.EOF for none; Write writes p
// whole, or fails. Neither allocates but to report an error. A RawIO is
// not safe for concurrent use by two readers or two writers.
type RawIO struct {
	rc          syscall.RawConn
	read, write func(fd uintptr) bool // built once (Reset), so a call allocates nothing

	// p is the call's buffer, n what it has moved, errno how it failed.
	p     []byte
	n     int
	errno syscall.Errno
}

// Reset points r at rc's descriptor, which must be nonblocking and in the
// poller: a net.Conn's, or a pipe's that os.NewFile registered.
func (r *RawIO) Reset(rc syscall.RawConn) {
	r.rc = rc
	if r.read == nil {
		r.read, r.write = r.readFD, r.writeFD
	}
}

// Read implements io.Reader on the descriptor.
//
//lard:noalloc
func (r *RawIO) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r.p, r.n, r.errno = p, 0, 0
	err := r.rc.Read(r.read)
	r.p = nil
	switch {
	case err != nil:
		return 0, err
	case r.errno != 0:
		//lard:allow noalloc — a failed read ends its connection: the error is built once per connection at most
		return 0, os.NewSyscallError("read", r.errno)
	case r.n == 0:
		return 0, io.EOF
	}
	return r.n, nil
}

// Write implements io.Writer on the descriptor.
//
//lard:noalloc
func (r *RawIO) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r.p, r.n, r.errno = p, 0, 0
	err := r.rc.Write(r.write)
	r.p = nil
	switch {
	case err != nil:
		return r.n, err
	case r.errno != 0:
		//lard:allow noalloc — a failed write ends its connection: the error is built once per connection at most
		return r.n, os.NewSyscallError("write", r.errno)
	}
	return r.n, nil
}

// readFD is one read(2), unless the descriptor has nothing yet: then it
// asks the poller to wait.
func (r *RawIO) readFD(fd uintptr) bool {
	for {
		n, _, e := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&r.p[0])), uintptr(len(r.p)))
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		r.n, r.errno = int(n), e
		return true
	}
}

// writeFD writes what is left of p, until it is written, the descriptor
// is full (the poller waits for room, and the next call goes on), or a
// write fails.
func (r *RawIO) writeFD(fd uintptr) bool {
	for r.n < len(r.p) {
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(&r.p[r.n])), uintptr(len(r.p)-r.n))
		switch e {
		case 0:
			r.n += int(n)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			r.errno = e
			return true
		}
	}
	return true
}
