//go:build !linux

package handoff

import (
	"net"
	"net/netip"
	"syscall"
)

// ListenRaw returns ln: raw accepts are Linux's alone (socket_linux.go), so
// every connection comes from ln.Accept.
func ListenRaw(ln net.Listener) net.Listener { return ln }

// Socket is never made here: ListenRaw accepts none, and no header can
// carry a split session's copy. It is a net.Conn only so that code that
// looks for one compiles.
type Socket struct{ net.Conn }

func (*Socket) reset(int) {}

func (*Socket) Peer() netip.AddrPort { return netip.AddrPort{} }

func (*Socket) SyscallConn() (syscall.RawConn, error) { return nil, errPassUnsupported }

func (*Socket) Write([]byte) (int, error) { return 0, errPassUnsupported }

func (*Socket) WriteBuffers(*net.Buffers) (int64, error) { return 0, errPassUnsupported }

func (*Socket) Close() error { return net.ErrClosed }
