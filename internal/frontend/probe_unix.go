//go:build unix

package frontend

import "syscall"

// peekFunc builds the callback b's checkout probe runs on its descriptor:
// one non-blocking recv(MSG_PEEK), its error left in b.peekErr.
func peekFunc(b *backendConn) func(fd uintptr) bool {
	return func(fd uintptr) bool {
		var one [1]byte
		_, _, b.peekErr = syscall.Recvfrom(int(fd), one[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return true // never wait for readability
	}
}
