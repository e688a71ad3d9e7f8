//go:build unix && !linux

package frontend

import "syscall"

// probeFunc builds the callback b's checkout probe runs on its descriptor:
// one non-blocking recv(MSG_PEEK), which must find nothing to read yet
// (EAGAIN) for b.quiet. Every transport here is a socket.
func probeFunc(b *backendConn) func(fd uintptr) bool {
	return func(fd uintptr) bool {
		var one [1]byte
		_, _, err := syscall.Recvfrom(int(fd), one[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		b.quiet = err == syscall.EAGAIN
		return true // never wait for readability
	}
}
