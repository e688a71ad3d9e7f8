package handoff

import (
	"io"
	"net"
	"net/netip"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Socket is a client's TCP socket, at either end of a handoff: the
// connection a front end accepts (ListenRaw), and a back end's copy of it,
// a split session's or a passed connection's (Listener). It follows one
// rule: only a call that must wait leaves the raw path. Each call is made
// raw on the bare, nonblocking descriptor (syscall.RawSyscall), so that
// none enters the scheduler: a call through the syscall package proper
// wakes the runtime's sysmon thread whenever the process has been idle,
// and lets sysmon hand the processor to another thread mid-call (DESIGN.md,
// "Raw system calls: the relay stays out of the scheduler"). A call that
// would have to wait, a read with nothing to read or a write with no room,
// hands the descriptor to the poller for good, as an os.File (join), under
// the deadlines set so far: on Linux os.NewFile's fcntl and epoll_ctl are
// the runtime's own, so joining enters no scheduler either. From then on
// reads and writes still run raw, in the os.File's RawConn callbacks, and
// leave the raw path only to wait; ReadFrom, the deadlines and the close go
// through the os.File. The socket is never made blocking: nothing calls
// the os.File's Fd. A split copy
// registered in the poller as soon as its header arrived, as an os.File or
// a net.TCPConn, measured slower on both benchmark workloads that split a
// session per connection or per request (DESIGN.md, "Split sessions:
// answering directly, reading still").
//
// Close may come from another goroutine than the socket's calls (a back
// end's Listener.Close), so every call on the bare descriptor, and the
// close, runs under mu: no call can reach a descriptor number the process
// has since reused, another client's socket, and the os.File's Close
// waits for a call in progress on it to return. After Close every method
// returns net.ErrClosed and touches no descriptor.
type Socket struct {
	mu   sync.Mutex
	open bool           // there is a socket: the zero value has none
	fd   int            // its descriptor
	peer netip.AddrPort // from accept4's sockaddr: a back end's copy has none

	// file is the descriptor in the poller, once a call had to wait, and
	// frc its RawConn; Close leaves them set, the record that it joined.
	// rdl and wdl are the deadlines set before it joined.
	file     *os.File
	frc      syscall.RawConn
	rdl, wdl time.Time
}

// iovecs is the scratch a socket's writev builds its vector in, kept by
// the caller for its next call: a back end's session holds one, so that a
// Socket, one per connection the front end accepts, need not.
type iovecs = []syscall.Iovec

// reset makes fd the socket, a back end's copy.
func (s *Socket) reset(fd int) {
	s.mu.Lock()
	s.open, s.fd, s.file, s.frc = true, fd, nil, nil
	s.rdl, s.wdl = time.Time{}, time.Time{}
	s.mu.Unlock()
}

// call runs f on the bare descriptor, unless the socket has joined the
// poller. Where it has, or f asks to wait (returns false) and it joins now,
// call reports it: the call goes on in frc's callback.
func (s *Socket) call(f func(fd uintptr) bool) (joined bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.open {
		return false, net.ErrClosed
	}
	if s.file == nil && f(uintptr(s.fd)) {
		return false, nil
	}
	if s.file == nil {
		s.file = os.NewFile(uintptr(s.fd), "client")
		s.frc, _ = s.file.SyscallConn()
		s.file.SetReadDeadline(s.rdl)
		s.file.SetWriteDeadline(s.wdl)
	}
	return true, nil
}

// waited is how a call that went on in the poller ended: net.ErrClosed
// where Close ended it, as every call after Close fails.
func (s *Socket) waited(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil && !s.open {
		return net.ErrClosed
	}
	return err
}

// wait is a call that must go through the poller: it joins the socket.
func wait(uintptr) bool { return false }

// Read implements net.Conn: what one read(2) gives, io.EOF for none.
//
//lard:noalloc
func (s *Socket) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r := RawIO{p: p}
	if joined, err := s.call(r.readFD); !joined {
		//lard:allow noalloc — a failed call ends its connection: the error is built once per connection at most
		return r.readEnd(err)
	}
	w := s.waiter()
	defer waiters.Put(w)
	n, err := w.Read(p)
	return n, s.waited(err)
}

// Write implements net.Conn: p whole, or an error.
//
//lard:noalloc
func (s *Socket) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r := RawIO{p: p}
	if joined, err := s.call(r.writeFD); !joined {
		//lard:allow noalloc — a failed call ends its connection: the error is built once per connection at most
		return r.writeEnd(err, "write")
	}
	w := s.waiter()
	defer waiters.Put(w)
	n, err := w.Write(p[r.n:])
	return r.n + n, s.waited(err)
}

// writeBuffers writes v whole, or fails, consuming it as
// net.Buffers.WriteTo does: writev(2), IOV_MAX iovecs a call, built in iov.
//
//lard:noalloc
func (s *Socket) writeBuffers(v *net.Buffers, iov *iovecs) (int64, error) {
	r := RawIO{v: v, iov: *iov}
	joined, err := s.call(r.writevFD)
	if *iov = r.iov; !joined {
		//lard:allow noalloc — a failed call ends its connection: the error is built once per connection at most
		n, err := r.writeEnd(err, "writev")
		return int64(n), err
	}
	w := s.waiter()
	defer waiters.Put(w)
	n, err := w.WriteBuffers(v)
	return int64(r.n) + n, s.waited(err)
}

// waiters lends a call that must wait in the poller a RawIO, whose
// callbacks are built once per RawIO: a socket builds none, so that it
// allocates nothing for its calls, whether or not it joins the poller.
var waiters = sync.Pool{New: func() any {
	w := new(RawIO)
	w.Reset(nil)
	return w
}}

// waiter lends s a RawIO on its os.File, to give back to waiters.
func (s *Socket) waiter() *RawIO {
	w := waiters.Get().(*RawIO)
	w.rc = s.frc
	return w
}

// ReadFrom copies r to the client through the os.File, whose ReadFrom
// splices from a socket source, as TCPConn.ReadFrom does: the relay hands
// it a response body's remainder beyond one window (httprelay), which
// would wait for room anyway.
func (s *Socket) ReadFrom(r io.Reader) (int64, error) {
	if _, err := s.call(wait); err != nil {
		return 0, err
	}
	return s.file.ReadFrom(r)
}

// socketRC is a Socket's syscall.RawConn: each callback runs on the bare
// descriptor, and one that asks to wait joins the poller and runs again
// there.
type socketRC Socket

// SyscallConn returns the socket's RawConn, which handoff headers carry.
func (s *Socket) SyscallConn() (syscall.RawConn, error) { return (*socketRC)(s), nil }

//lard:noalloc
func (rc *socketRC) Control(f func(fd uintptr)) error {
	s := (*Socket)(rc)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.open {
		return net.ErrClosed
	}
	f(uintptr(s.fd))
	return nil
}

//lard:noalloc
func (rc *socketRC) Read(f func(fd uintptr) bool) error {
	s := (*Socket)(rc)
	joined, err := s.call(f)
	if joined {
		err = s.waited(s.frc.Read(f))
	}
	return err
}

//lard:noalloc
func (rc *socketRC) Write(f func(fd uintptr) bool) error {
	s := (*Socket)(rc)
	joined, err := s.call(f)
	if joined {
		err = s.waited(s.frc.Write(f))
	}
	return err
}

// CloseWrite shuts the socket's sending side down, for every copy of it.
func (s *Socket) CloseWrite() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.open {
		return net.ErrClosed
	}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SHUTDOWN, uintptr(s.fd), syscall.SHUT_WR, 0); e != 0 {
		return os.NewSyscallError("shutdown", e)
	}
	return nil
}

// Close closes the descriptor: raw, or through the os.File once it joined
// the poller, which must let it go.
func (s *Socket) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.open {
		return net.ErrClosed
	}
	if s.open = false; s.file != nil {
		return s.file.Close()
	}
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOSE, uintptr(s.fd), 0, 0); e != 0 {
		return os.NewSyscallError("close", e)
	}
	return nil
}

func (s *Socket) RemoteAddr() net.Addr { return net.TCPAddrFromAddrPort(s.peer) }

// Peer is the client's address, as accept4 gave it.
func (s *Socket) Peer() netip.AddrPort { return s.peer }

// LocalAddr asks the socket (getsockname), nil once it is closed.
func (s *Socket) LocalAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.open {
		return nil
	}
	var sa syscall.RawSockaddrAny
	n := uint32(unsafe.Sizeof(sa))
	if _, _, e := syscall.RawSyscall(syscall.SYS_GETSOCKNAME, uintptr(s.fd), uintptr(unsafe.Pointer(&sa)), uintptr(unsafe.Pointer(&n))); e != 0 {
		return nil
	}
	return net.TCPAddrFromAddrPort(sockaddrPort(&sa))
}

func (s *Socket) SetDeadline(t time.Time) error { return s.setDeadline(t, true, true) }

func (s *Socket) SetReadDeadline(t time.Time) error { return s.setDeadline(t, true, false) }

func (s *Socket) SetWriteDeadline(t time.Time) error { return s.setDeadline(t, false, true) }

// setDeadline keeps t as the read deadline, the write deadline or both,
// for the poller, until the socket joins it; it sets them there after.
func (s *Socket) setDeadline(t time.Time, read, write bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case !s.open:
		return net.ErrClosed
	case s.file == nil:
		if read {
			s.rdl = t
		}
		if write {
			s.wdl = t
		}
		return nil
	case !write:
		return s.file.SetReadDeadline(t)
	case !read:
		return s.file.SetWriteDeadline(t)
	}
	return s.file.SetDeadline(t)
}

// rawListener accepts a TCP listener's connections with a raw
// accept4(SOCK_NONBLOCK|SOCK_CLOEXEC) inside the RawConn.Read callback of
// a copy of its socket: net's own listener's RawConn.Read returns EINVAL,
// and the copy, an os.File, is in the poller, so that Accept waits there
// while no connection is queued. net's accept path makes its calls through
// syscall.Syscall, and adds keep-alive setsockopts, a getsockname and two
// formatted addresses to each connection. Accepted sockets get
// TCP_NODELAY, as net's do, and no SO_KEEPALIVE. Close closes the copy and
// the listener. Accept is not safe for concurrent use.
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

// ListenRaw returns the listener a front end accepts clients from: one
// whose Accept returns each connection as a *Socket where ln is a
// *net.TCPListener whose socket can be copied, ln itself otherwise. Close
// it, not ln, to stop listening: its copy holds the socket open.
func ListenRaw(ln net.Listener) net.Listener {
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

// Accept returns the next connection, a *Socket, with TCP_NODELAY set, as
// net sets it on every TCP connection: a back end writes its responses to
// the client's socket, and Nagle's algorithm would hold the last segment
// of one back until the client acknowledged the rest. A failed accept4 is
// a *net.OpError, as net's is, so that its Temporary tells a caller
// whether to retry (EMFILE, ENFILE).
func (l *rawListener) Accept() (net.Conn, error) {
	l.errno = 0
	if err := l.rc.Read(l.accept); err != nil {
		return nil, err
	}
	if l.errno != 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.Addr(), Err: os.NewSyscallError("accept4", l.errno)}
	}
	on := int32(1)
	syscall.RawSyscall6(syscall.SYS_SETSOCKOPT, uintptr(l.fd), syscall.IPPROTO_TCP, syscall.TCP_NODELAY, uintptr(unsafe.Pointer(&on)), 4, 0)
	return &Socket{open: true, fd: l.fd, peer: sockaddrPort(&l.sa)}, nil
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
