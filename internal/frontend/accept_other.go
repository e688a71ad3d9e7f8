//go:build !linux

package frontend

import (
	"net"
	"syscall"
)

// listenRaw returns ln: raw accepts are Linux's alone (accept_linux.go),
// so every connection comes from ln.Accept.
func listenRaw(ln net.Listener) net.Listener { return ln }

// clientSocketOf returns c's socket as a handoff header carries it (nil
// where c has none that can go to a back end) and c's address as the
// header spells it.
func clientSocketOf(c net.Conn) (syscall.RawConn, string) {
	return tcpSocket(c), c.RemoteAddr().String()
}
