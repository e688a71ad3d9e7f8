//go:build !linux

package handoff

import (
	"bufio"
	"net"
	"syscall"
)

// Without Linux's abstract unix sockets and SO_PEERCRED a Listener has no
// pass address, no transport carries a client's socket, and a front end
// relays every response.

func listenPasses(net.Addr) net.Listener { return nil }

func (l *Listener) acceptPasses() {}

func headerOffset(net.Conn, *bufio.Reader) int64 { return 0 }

// headerSocket refuses every header that calls for a socket.
func headerSocket(_ net.Conn, _ int64, want bool) (int, error) {
	if want {
		return -1, errHeaderFDs
	}
	return -1, nil
}

func carriesSockets(net.Conn) bool { return false }

func sendWithSocket(net.Conn, []byte, int, syscall.RawConn) error { return errPassUnsupported }

func closeFD(int) {}

// DialPass always fails here: there is no pass address to dial.
func DialPass(addr string) (net.Conn, error) { return nil, errPassUnsupported }
