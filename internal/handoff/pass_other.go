//go:build !linux

package handoff

import (
	"net"
	"time"
)

// Without Linux's abstract unix sockets and SO_PEERCRED a Listener has no
// pass address, and a front end relays every connection.

func listenPasses(net.Addr) net.Listener { return nil }

func (l *Listener) acceptPasses() {}

// DialPass always fails here: there is no pass address to dial.
func DialPass(addr string) (*PassChannel, error) { return nil, errPassUnsupported }

// Pass always fails here; no channel exists to call it on.
func (p *PassChannel) Pass(client *net.TCPConn, clientAddr string, initial []byte, idle time.Duration) error {
	return errPassUnsupported
}
