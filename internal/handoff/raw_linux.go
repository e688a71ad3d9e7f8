package handoff

import (
	"io"
	"net"
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
// descriptor's deadlines, as a plain Read or Write does (DESIGN.md, "Raw
// system calls: the relay stays out of the scheduler").
//
// Read returns what one read(2) gave, io.EOF for none; Write writes p
// whole, or fails. Neither allocates but to report an error. A RawIO is
// not safe for concurrent use by two readers or two writers.
type RawIO struct {
	rc                  syscall.RawConn
	read, write, writev func(fd uintptr) bool // built once (Reset), so a call allocates nothing

	// p and v are the call's buffers, n what it has moved, errno how it
	// failed; iov is writev's, kept for the next call.
	p     []byte
	v     *net.Buffers
	n     int
	errno syscall.Errno
	iov   []syscall.Iovec
}

// Reset points r at rc's descriptor, which must be nonblocking and in the
// poller: a net.Conn's, a pipe's that os.NewFile registered, or a
// Socket's os.File.
func (r *RawIO) Reset(rc syscall.RawConn) {
	r.rc = rc
	if r.read == nil {
		r.read, r.write, r.writev = r.readFD, r.writeFD, r.writevFD
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
	//lard:allow noalloc — a failed call ends its connection: the error is built once per connection at most
	return r.readEnd(r.rc.Read(r.read))
}

// Write implements io.Writer on the descriptor.
//
//lard:noalloc
func (r *RawIO) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r.p, r.n, r.errno = p, 0, 0
	//lard:allow noalloc — a failed call ends its connection: the error is built once per connection at most
	return r.writeEnd(r.rc.Write(r.write), "write")
}

// WriteBuffers writes v whole, or fails, consuming it as
// net.Buffers.WriteTo does.
//
//lard:noalloc
func (r *RawIO) WriteBuffers(v *net.Buffers) (int64, error) {
	r.v, r.n, r.errno = v, 0, 0
	//lard:allow noalloc — a failed call ends its connection: the error is built once per connection at most
	n, err := r.writeEnd(r.rc.Write(r.writev), "writev")
	return int64(n), err
}

// readEnd is what a read gave, given how its RawConn call ended.
func (r *RawIO) readEnd(err error) (int, error) {
	r.p = nil
	switch {
	case err != nil:
		return 0, err
	case r.errno != 0:
		return 0, os.NewSyscallError("read", r.errno)
	case r.n == 0:
		return 0, io.EOF
	}
	return r.n, nil
}

// writeEnd is what a write wrote, given how its RawConn call ended; call
// names the system call in an error.
func (r *RawIO) writeEnd(err error, call string) (int, error) {
	r.p, r.v = nil, nil
	if err == nil && r.errno != 0 {
		err = os.NewSyscallError(call, r.errno)
	}
	return r.n, err
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

// iovMax is IOV_MAX, the most iovecs one writev takes.
const iovMax = 1024

// writevFD writes what is left of v, IOV_MAX iovecs a call, until it is
// written, the descriptor is full (the poller waits for room, and the next
// call goes on), or a call fails.
func (r *RawIO) writevFD(fd uintptr) bool {
	for len(*r.v) > 0 {
		iov := r.iov[:0]
		for _, b := range *r.v {
			if len(iov) == iovMax {
				break
			}
			if len(b) > 0 {
				iov = append(iov, syscall.Iovec{Base: &b[0]})
				iov[len(iov)-1].SetLen(len(b))
			}
		}
		if r.iov = iov; len(iov) == 0 {
			*r.v = (*r.v)[len(*r.v):]
			break
		}
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
		clear(iov)
		switch e {
		case 0:
			r.n += int(n)
			consume(r.v, int(n))
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

// consume drops v's first n bytes, as net.Buffers.WriteTo does with what it
// wrote.
func consume(v *net.Buffers, n int) {
	for len(*v) > 0 && n >= len((*v)[0]) {
		n -= len((*v)[0])
		*v = (*v)[1:]
	}
	if n > 0 {
		(*v)[0] = (*v)[0][n:]
	}
}
