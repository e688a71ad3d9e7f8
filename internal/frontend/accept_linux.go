package frontend

import (
	"io"
	"net"
	"net/netip"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// This file keeps a TCP client's per-connection calls out of the scheduler,
// as raw_linux.go keeps its per-request reads out (DESIGN.md, "The relay's
// calls stay out of the scheduler"). net's accept path makes its calls
// through syscall.Syscall, as do its shutdown and close, and it adds
// keep-alive setsockopts, a getsockname and two formatted addresses to each
// connection. Here a TCP listener's connections are accepted with a raw
// accept4 on a pollable copy of its socket (rawListener), and each comes as
// a clientSocket, which makes its calls raw on the bare descriptor and
// joins the poller only when a call must wait.
//
// Accepted sockets get TCP_NODELAY, as net's do, and no SO_KEEPALIVE: the
// head timeout bounds an idle client, and a passed connection takes it
// along (pass.go).

// rawListener accepts a TCP listener's connections with a raw
// accept4(SOCK_NONBLOCK|SOCK_CLOEXEC) inside the RawConn.Read callback of
// a copy of its socket: net's own listener's RawConn.Read returns EINVAL,
// and the copy, an os.File, is in the poller, so that Accept waits there
// while no connection is queued. Close closes the copy and the listener.
// Accept is not safe for concurrent use.
type rawListener struct {
	net.Listener
	f      *os.File
	rc     syscall.RawConn
	accept func(fd uintptr) bool // built once, so an accept allocates nothing but its socket

	// accept's results: the socket, how the call failed, and the peer.
	fd    int
	errno syscall.Errno
	sa    syscall.RawSockaddrAny
	salen uint32
}

// listenRaw returns the listener Serve accepts from: a rawListener over
// ln where ln is a *net.TCPListener whose socket can be copied, ln itself
// otherwise.
func listenRaw(ln net.Listener) net.Listener {
	tl, ok := ln.(*net.TCPListener)
	if !ok {
		return ln
	}
	f, err := tl.File()
	if err != nil {
		return ln
	}
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return ln
	}
	l := &rawListener{Listener: ln, f: f, rc: rc}
	l.accept = l.acceptFD
	return l
}

// Accept returns the next connection, a *clientSocket, with TCP_NODELAY
// set, as net sets it on every TCP connection: a back end writes its
// responses to the client's socket, and Nagle's algorithm would hold the
// last segment of one back until the client acknowledged the rest.
func (l *rawListener) Accept() (net.Conn, error) {
	l.errno = 0
	if err := l.rc.Read(l.accept); err != nil {
		return nil, err
	}
	if l.errno != 0 {
		return nil, os.NewSyscallError("accept4", l.errno)
	}
	on := int32(1)
	syscall.RawSyscall6(syscall.SYS_SETSOCKOPT, uintptr(l.fd), syscall.IPPROTO_TCP, syscall.TCP_NODELAY, uintptr(unsafe.Pointer(&on)), 4, 0)
	return &clientSocket{fd: l.fd, peer: sockaddrPort(&l.sa)}, nil
}

// acceptFD is one accept4, unless no connection is queued: then it asks
// the poller to wait. A connection reset while queued is skipped, as net
// skips it.
func (l *rawListener) acceptFD(fd uintptr) bool {
	for {
		l.salen = uint32(unsafe.Sizeof(l.sa))
		s, _, e := syscall.RawSyscall6(syscall.SYS_ACCEPT4, fd, uintptr(unsafe.Pointer(&l.sa)), uintptr(unsafe.Pointer(&l.salen)),
			syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0, 0)
		switch e {
		case syscall.EINTR, syscall.ECONNABORTED:
			continue
		case syscall.EAGAIN:
			return false
		}
		l.fd, l.errno = int(s), e
		return true
	}
}

// Close closes the copy, which ends a waiting Accept, and then the
// listener: the socket is gone once both are.
func (l *rawListener) Close() error {
	l.f.Close()
	return l.Listener.Close()
}

// clientSocket is a client's TCP connection as rawListener accepts it: a
// nonblocking descriptor that its calls reach raw (syscall.RawSyscall), so
// that none enters the scheduler. A call that would have to wait, a read
// with nothing to read or a write with no room, hands the descriptor to
// the poller for good, as an os.File (join): on Linux os.NewFile's fcntl
// and epoll_ctl are the runtime's own, so joining enters no scheduler
// either. From then on the call waits there, under the read deadline set
// so far, and the socket closes through the os.File. It is never made
// blocking: nothing calls the os.File's Fd.
//
// The relay loop is its only user; it is not safe for concurrent use.
// After Close every method returns net.ErrClosed and touches no
// descriptor, so that a descriptor number the process has since reused,
// another client's socket, is never read, written or sent to a back end
// through it.
type clientSocket struct {
	fd   int            // -1 once closed
	peer netip.AddrPort // from accept4's sockaddr

	// file is the descriptor in the poller, once a call had to wait (it
	// stays set after Close: the socket joined), and frc its RawConn. rdl
	// is the read deadline set before it joined; the relay loop sets no
	// other.
	file *os.File
	frc  syscall.RawConn
	rdl  time.Time
}

// join hands the descriptor to the poller, under the read deadline set so
// far, unless it is there already, and returns its os.File. The socket
// must be open.
func (s *clientSocket) join() *os.File {
	if s.file == nil {
		s.file = os.NewFile(uintptr(s.fd), "client")
		s.frc, _ = s.file.SyscallConn()
		if !s.rdl.IsZero() {
			s.file.SetReadDeadline(s.rdl)
		}
	}
	return s.file
}

// socketRC is a clientSocket's syscall.RawConn: each callback runs on the
// bare descriptor, and one that asks to wait joins the poller and runs
// again there.
type socketRC clientSocket

// SyscallConn returns the socket's RawConn, which handoff headers carry
// and the relay loop reads heads through (handoff.RawIO).
func (s *clientSocket) SyscallConn() (syscall.RawConn, error) { return (*socketRC)(s), nil }

//lard:noalloc
func (rc *socketRC) Control(f func(fd uintptr)) error {
	s := (*clientSocket)(rc)
	if s.fd < 0 {
		return net.ErrClosed
	}
	f(uintptr(s.fd))
	return nil
}

//lard:noalloc
func (rc *socketRC) Read(f func(fd uintptr) bool) error {
	s := (*clientSocket)(rc)
	switch {
	case s.fd < 0:
		return net.ErrClosed
	case s.file == nil && f(uintptr(s.fd)):
		return nil
	}
	s.join()
	return s.frc.Read(f)
}

//lard:noalloc
func (rc *socketRC) Write(f func(fd uintptr) bool) error {
	s := (*clientSocket)(rc)
	switch {
	case s.fd < 0:
		return net.ErrClosed
	case s.file == nil && f(uintptr(s.fd)):
		return nil
	}
	s.join()
	return s.frc.Write(f)
}

// Read implements net.Conn through the os.File, joining the poller: the
// relay loop reads heads through the RawConn instead (clientReader), and
// only a shed client's drain reads here.
func (s *clientSocket) Read(p []byte) (int, error) {
	if s.fd < 0 {
		return 0, net.ErrClosed
	}
	return s.join().Read(p)
}

// Write implements net.Conn: p whole, by write(2) while the socket takes
// it, and the rest through the os.File once it is full.
func (s *clientSocket) Write(p []byte) (int, error) {
	var n int
	for n < len(p) {
		switch {
		case s.fd < 0:
			return n, net.ErrClosed
		case s.file != nil:
			m, err := s.file.Write(p[n:])
			return n + m, err
		}
		m, _, e := syscall.RawSyscall(syscall.SYS_WRITE, uintptr(s.fd), uintptr(unsafe.Pointer(&p[n])), uintptr(len(p)-n))
		switch e {
		case 0:
			n += int(m)
		case syscall.EINTR:
		case syscall.EAGAIN:
			s.join()
		default:
			return n, os.NewSyscallError("write", e)
		}
	}
	return n, nil
}

// ReadFrom copies r to the client through the os.File, whose ReadFrom
// splices from a socket source, as TCPConn.ReadFrom does: the relay hands
// it a response body's remainder beyond one window (httprelay), which
// would wait for room anyway.
func (s *clientSocket) ReadFrom(r io.Reader) (int64, error) {
	if s.fd < 0 {
		return 0, net.ErrClosed
	}
	return s.join().ReadFrom(r)
}

// CloseWrite shuts the socket's sending side down, for every copy of it.
func (s *clientSocket) CloseWrite() error {
	if s.fd < 0 {
		return net.ErrClosed
	}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SHUTDOWN, uintptr(s.fd), syscall.SHUT_WR, 0); e != 0 {
		return os.NewSyscallError("shutdown", e)
	}
	return nil
}

// Close closes the descriptor: raw, or through the os.File once it joined
// the poller, which must let it go.
func (s *clientSocket) Close() error {
	fd := s.fd
	if fd < 0 {
		return net.ErrClosed
	}
	s.fd = -1
	if s.file != nil {
		return s.file.Close()
	}
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOSE, uintptr(fd), 0, 0); e != 0 {
		return os.NewSyscallError("close", e)
	}
	return nil
}

func (s *clientSocket) RemoteAddr() net.Addr { return net.TCPAddrFromAddrPort(s.peer) }

// LocalAddr asks the socket (getsockname), nil once it is closed.
func (s *clientSocket) LocalAddr() net.Addr {
	if s.fd < 0 {
		return nil
	}
	var sa syscall.RawSockaddrAny
	n := uint32(unsafe.Sizeof(sa))
	if _, _, e := syscall.RawSyscall(syscall.SYS_GETSOCKNAME, uintptr(s.fd), uintptr(unsafe.Pointer(&sa)), uintptr(unsafe.Pointer(&n))); e != 0 {
		return nil
	}
	return net.TCPAddrFromAddrPort(sockaddrPort(&sa))
}

func (s *clientSocket) SetDeadline(t time.Time) error {
	if err := s.SetReadDeadline(t); err != nil {
		return err
	}
	return s.SetWriteDeadline(t)
}

// SetReadDeadline keeps t for the poller, until the socket joins it.
func (s *clientSocket) SetReadDeadline(t time.Time) error {
	switch {
	case s.fd < 0:
		return net.ErrClosed
	case s.file != nil:
		return s.file.SetReadDeadline(t)
	}
	s.rdl = t
	return nil
}

// SetWriteDeadline joins the poller, which keeps t: the relay loop sets no
// write deadline.
func (s *clientSocket) SetWriteDeadline(t time.Time) error {
	if s.fd < 0 {
		return net.ErrClosed
	}
	return s.join().SetWriteDeadline(t)
}

// sockaddrPort reads a TCP socket's address: an IPv4-mapped IPv6 address
// as the IPv4 address, and a link-local address's zone as net names it.
func sockaddrPort(sa *syscall.RawSockaddrAny) netip.AddrPort {
	switch sa.Addr.Family {
	case syscall.AF_INET:
		a := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(a.Addr), port(&a.Port))
	case syscall.AF_INET6:
		a := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		ip := netip.AddrFrom16(a.Addr).Unmap()
		if a.Scope_id != 0 {
			ip = ip.WithZone(zoneName(a.Scope_id))
		}
		return netip.AddrPortFrom(ip, port(&a.Port))
	}
	return netip.AddrPort{}
}

// port reads a sockaddr's port, which is in network byte order.
func port(p *uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(p))
	return uint16(b[0])<<8 | uint16(b[1])
}

// zoneName names an interface by its index, or by the number where it
// has no name.
func zoneName(index uint32) string {
	if ifi, err := net.InterfaceByIndex(int(index)); err == nil {
		return ifi.Name
	}
	return strconv.FormatUint(uint64(index), 10)
}

// clientSocketOf returns c's socket as a handoff header carries it (nil
// where c has none that can go to a back end) and c's address as the
// header spells it: for a clientSocket, read from accept4's sockaddr.
func clientSocketOf(c net.Conn) (syscall.RawConn, string) {
	if s, ok := c.(*clientSocket); ok {
		return (*socketRC)(s), s.peer.String()
	}
	return tcpSocket(c), c.RemoteAddr().String()
}
