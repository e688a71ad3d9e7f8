package frontend

import (
	"syscall"
	"unsafe"
)

// pollIn is POLLIN (poll.h).
const pollIn = 0x1

// pollFd is struct pollfd (poll.h).
type pollFd struct {
	fd      int32
	events  int16
	revents int16
}

// probeFunc builds the callback b's checkout probe runs on its descriptor:
// one zero-timeout poll(2), as ppoll, for readability. Whether nothing at
// all was reported, no data, no EOF and no error, is left in b.quiet. It
// looks at any descriptor alike: a TCP socket, and the pipe a pass
// transport's answers come on (handoff.DialPass), where a peek would fail.
// A poll that does not wait cannot block, so it is a raw call, which keeps
// the checkout out of the scheduler (handoff.RawIO).
func probeFunc(b *backendConn) func(fd uintptr) bool {
	return func(fd uintptr) bool {
		p := pollFd{fd: int32(fd), events: pollIn}
		var zero syscall.Timespec
		for {
			n, _, e := syscall.RawSyscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&p)), 1, uintptr(unsafe.Pointer(&zero)), 0, 0, 0)
			if e == syscall.EINTR {
				continue
			}
			b.quiet = e == 0 && n == 0
			return true // never wait for readability
		}
	}
}
