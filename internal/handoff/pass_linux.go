package handoff

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// listenPasses opens a Listener's pass address, or returns nil where it
// has none: an address that is no TCP address, or a name already taken.
func listenPasses(addr net.Addr) net.Listener {
	if _, ok := addr.(*net.TCPAddr); !ok {
		return nil
	}
	ln, err := net.Listen("unix", passPrefix+addr.String())
	if err != nil {
		return nil
	}
	return ln
}

// acceptPasses accepts transports on the pass address until Close and
// serves each as the TCP ones are served (openPass, then handshake). A
// peer of another user is closed and counted in Rejected.
func (l *Listener) acceptPasses() {
	for {
		c, err := l.passLn.Accept()
		if err != nil {
			type temporary interface{ Temporary() bool }
			if te, ok := err.(temporary); ok && te.Temporary() {
				time.Sleep(10 * time.Millisecond) // fd pressure: passes wait, relaying goes on
				continue
			}
			return
		}
		uc := c.(*net.UnixConn)
		if uid, err := peerUID(uc); err != nil || uid != l.passUID {
			l.rejected.Add(1)
			uc.Close()
			continue
		}
		go l.openPass(uc)
	}
}

// openPass takes the pipes a pass transport's first message carries,
// within HandshakeTimeout, and serves the transport (handshake). A first
// message that is not exactly a read end and a write end of pipes is
// counted in Rejected, and the transport and every descriptor it carried
// are closed; a peer that hangs up before sending one is closed quietly,
// as a TCP peer that never sends a header is.
func (l *Listener) openPass(uc *net.UnixConn) {
	if l.HandshakeTimeout > 0 {
		uc.SetReadDeadline(time.Now().Add(l.HandshakeTimeout))
	}
	in, out, err := acceptPipes(uc)
	if err != nil {
		if err != io.EOF {
			l.rejected.Add(1)
		}
		uc.Close()
		return
	}
	sock, err := detach(uc)
	if err != nil { // out of descriptors: no fault of the peer's
		in.Close()
		out.Close()
		uc.Close()
		return
	}
	l.handshake(newPassConn(sock, uc.LocalAddr(), uc.RemoteAddr(), in, out))
}

// tagLen is the length of every message on a pass transport's socket: a
// stream offset, big-endian.
const tagLen = 8

var errBadPipes = errors.New("handoff: a pass transport's first message is not a pipe's read end and another's write end")

// acceptPipes reads a pass transport's first message off uc: the read
// end of the front end's request pipe and the write end of its answer
// pipe, in that order, and nothing else. On an error every descriptor the
// message carried is closed; io.EOF means none came.
func acceptPipes(uc *net.UnixConn) (in, out *os.File, err error) {
	var tag [tagLen]byte
	oob := make([]byte, syscall.CmsgSpace(3*4)) // room for a third, seen and refused
	_, oobn, flags, _, err := uc.ReadMsgUnix(tag[:], oob)
	fds := appendRights(nil, oob[:oobn])
	switch {
	case err == io.EOF && len(fds) == 0:
		return nil, nil, io.EOF
	case err != nil:
	case flags&syscall.MSG_CTRUNC != 0 || len(fds) != 2 || !isPipeEnd(fds[0], syscall.O_RDONLY) || !isPipeEnd(fds[1], syscall.O_WRONLY):
		err = errBadPipes
	}
	if err != nil {
		closeFDs(fds)
		return nil, nil, err
	}
	for _, fd := range fds {
		syscall.SetNonblock(fd, true) // for the poller: the dialer's are already
	}
	return os.NewFile(uintptr(fds[0]), "pass requests"), os.NewFile(uintptr(fds[1]), "pass answers"), nil
}

// detach takes uc's socket out of the runtime's poller, for good: it
// returns a blocking copy of it, which no epoll watches, and closes uc.
// Neither end of a pass transport waits on its socket once the pipes have
// gone: the front end only sends on it, and the back end takes each
// message without waiting. Watched, a socket would wake its end's poller
// at every message the other end sent or took.
func detach(uc *net.UnixConn) (*os.File, error) {
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil, err
	}
	fd, errno := -1, syscall.Errno(0)
	if err := rc.Control(func(s uintptr) {
		var r uintptr
		r, _, errno = syscall.Syscall(syscall.SYS_FCNTL, s, syscall.F_DUPFD_CLOEXEC, 0)
		fd = int(r)
	}); err != nil {
		return nil, err
	}
	if errno != 0 {
		return nil, errno
	}
	uc.Close()
	if err := syscall.SetNonblock(fd, false); err != nil {
		syscall.Close(fd)
		return nil, err
	}
	return os.NewFile(uintptr(fd), "pass socket"), nil
}

// isPipeEnd reports whether fd is a FIFO open for mode alone
// (syscall.O_RDONLY or syscall.O_WRONLY).
func isPipeEnd(fd, mode int) bool {
	var st syscall.Stat_t
	if syscall.Fstat(fd, &st) != nil || st.Mode&syscall.S_IFMT != syscall.S_IFIFO {
		return false
	}
	fl, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_GETFL, 0)
	return e == 0 && int(fl)&syscall.O_ACCMODE == mode
}

// passConn is one end of a pass transport. Its byte stream, the same
// bytes a TCP transport carries, runs over a pipe pair: in is the pipe
// this end reads (the front end's answer pipe, the back end's request
// pipe), out the one it writes. The unix socket carries descriptors only:
// the pipes, in its first message, and then one message per header that
// carries a client's socket, tagged with the offset in the front end's
// stream at which that header begins. The front end never reads its
// socket, so a descriptor a back end sent there is never received, and it
// closes with the transport. Its sendmsg and recvmsg calls run in
// callbacks built once, with their arguments and results in the struct,
// so that neither allocates.
//
// Both ends read and write their pipes with raw calls (RawIO), as the
// front end's relay loop reads its clients: on the front end a pipe call
// per request each way is most of the calls that loop makes, and in
// paired benchmark runs the back end's end, made raw as well, lost
// nothing (DESIGN.md, "Raw system calls: the relay stays out of the
// scheduler").
type passConn struct {
	sock          *os.File        // the socket, blocking and out of the poller (detach)
	rc            syscall.RawConn // sock's
	local, remote net.Addr        // the socket's addresses
	in, out       *os.File
	rin, rout     RawIO // in's and out's calls

	// read and wrote count the stream's bytes: the offset of the next byte
	// in and out.
	read, wrote int64

	// tag is every socket message's payload, sent and received; rights
	// the control message send attaches a client's socket in, oob the
	// room recv receives one into.
	tag    [tagLen]byte
	rights []byte
	oob    []byte
	fds    []int

	// attach runs under the client socket's Control and sends tag with its
	// descriptor in rights (send): send's results.
	attach func(clientFD uintptr)
	send   func(fd uintptr)
	outN   int
	outErr error

	// recv takes the next socket message without waiting, or only peeks at
	// its tag: its flags and results. A call that cannot wait is made raw.
	recv      func(fd uintptr)
	peek      bool
	n, oobn   int
	recvFlags int
	errno     syscall.Errno
}

// newPassConn builds one end of a pass transport over its socket and its
// pipe ends, which are nonblocking and in the poller.
func newPassConn(sock *os.File, local, remote net.Addr, in, out *os.File) *passConn {
	c := &passConn{sock: sock, local: local, remote: remote, in: in, out: out, rights: syscall.UnixRights(0), oob: make([]byte, syscall.CmsgSpace(2*4)), fds: make([]int, 0, 2)}
	c.rc, _ = sock.SyscallConn()
	inRC, _ := in.SyscallConn()
	outRC, _ := out.SyscallConn()
	c.rin.Reset(inRC)
	c.rout.Reset(outRC)
	c.attach = func(clientFD uintptr) {
		binary.NativeEndian.PutUint32(c.rights[syscall.CmsgLen(0):], uint32(clientFD))
		if err := c.rc.Control(c.send); err != nil {
			c.outErr = err
		}
	}
	// send tries the message raw and without waiting first: the socket is
	// blocking (detach), and a raw call that blocked would hold its
	// processor, maybe the process's only one. A message that would have to
	// wait for room is sent again through the scheduler, which lets the
	// processor go while it waits.
	c.send = func(fd uintptr) {
		iov := syscall.Iovec{Base: &c.tag[0]}
		iov.SetLen(tagLen)
		msg := syscall.Msghdr{Iov: &iov, Iovlen: 1, Control: &c.rights[0]}
		msg.SetControllen(len(c.rights))
		wait := false
		for {
			var n uintptr
			var e syscall.Errno
			if wait {
				n, _, e = syscall.Syscall(syscall.SYS_SENDMSG, fd, uintptr(unsafe.Pointer(&msg)), syscall.MSG_NOSIGNAL)
			} else {
				n, _, e = syscall.RawSyscall(syscall.SYS_SENDMSG, fd, uintptr(unsafe.Pointer(&msg)), syscall.MSG_NOSIGNAL|syscall.MSG_DONTWAIT)
			}
			switch {
			case e == syscall.EINTR:
				continue
			case e == syscall.EAGAIN && !wait:
				wait = true
				continue
			}
			c.outN, c.outErr = int(n), nil
			if e != 0 {
				c.outN, c.outErr = 0, e
			}
			return
		}
	}
	c.recv = func(fd uintptr) {
		iov := syscall.Iovec{Base: &c.tag[0]}
		iov.SetLen(tagLen)
		msg := syscall.Msghdr{Iov: &iov, Iovlen: 1}
		flags := syscall.MSG_DONTWAIT | syscall.MSG_PEEK
		if !c.peek {
			msg.Control = &c.oob[0]
			msg.SetControllen(len(c.oob))
			flags = syscall.MSG_DONTWAIT | syscall.MSG_CMSG_CLOEXEC
		}
		for {
			n, _, e := syscall.RawSyscall(syscall.SYS_RECVMSG, fd, uintptr(unsafe.Pointer(&msg)), uintptr(flags))
			if e == syscall.EINTR {
				continue
			}
			c.n, c.oobn, c.recvFlags, c.errno = int(n), int(msg.Controllen), int(msg.Flags), e
			if e != 0 {
				c.n, c.oobn = 0, 0
			}
			return
		}
	}
	return c
}

// Read implements net.Conn on the pipe this end reads. A deadline's error
// is a net.Error, as a socket's is: the poller's own, which no os wrapping
// hides.
//
//lard:noalloc
func (c *passConn) Read(p []byte) (int, error) {
	n, err := c.rin.Read(p)
	c.read += int64(n)
	return n, err
}

// Write implements net.Conn on the pipe this end writes.
//
//lard:noalloc
func (c *passConn) Write(p []byte) (int, error) {
	n, err := c.rout.Write(p)
	c.wrote += int64(n)
	return n, err
}

// Close closes the pipes and the socket, and with it every descriptor
// message still unread on it.
func (c *passConn) Close() error {
	c.in.Close()
	c.out.Close()
	return c.sock.Close()
}

func (c *passConn) LocalAddr() net.Addr  { return c.local }
func (c *passConn) RemoteAddr() net.Addr { return c.remote }

func (c *passConn) SetDeadline(t time.Time) error {
	c.in.SetReadDeadline(t)
	return c.out.SetWriteDeadline(t)
}

func (c *passConn) SetReadDeadline(t time.Time) error  { return c.in.SetReadDeadline(t) }
func (c *passConn) SetWriteDeadline(t time.Time) error { return c.out.SetWriteDeadline(t) }

// SyscallConn is the pipe this end reads, where a front end's checkout
// probe looks for anything the back end sent between sessions.
func (c *passConn) SyscallConn() (syscall.RawConn, error) { return c.in.SyscallConn() }

// sendSocket writes b, which is not empty and has a header at b[at:], to
// the stream, after the message that carries the client's socket, tagged
// with the header's offset. On an error the socket may or may not have
// gone.
func (c *passConn) sendSocket(b []byte, at int, client syscall.RawConn) error {
	binary.BigEndian.PutUint64(c.tag[:], uint64(c.wrote+int64(at)))
	c.outN, c.outErr = 0, nil
	err := client.Control(c.attach)
	if err == nil {
		err = c.outErr
	}
	if err == nil && c.outN < tagLen {
		// A stream may take part of a message; the socket went with it.
		_, err = c.sock.Write(c.tag[c.outN:])
	}
	if err == nil {
		_, err = c.Write(b)
	}
	return err
}

// takeSocket takes the socket message of the header at offset at, which
// carries a client's socket: it is already on the socket when the header's
// bytes are read, since the front end sends it first. Anything but one
// message of tagLen bytes, tagged at, with exactly one descriptor, a TCP
// socket, is an error, and every descriptor it carried is closed.
func (c *passConn) takeSocket(at int64) (int, error) {
	if err := c.rc.Control(c.recv); err != nil {
		return -1, err
	}
	fds := appendRights(c.fds[:0], c.oob[:c.oobn])
	if c.n != tagLen || c.recvFlags&syscall.MSG_CTRUNC != 0 || len(fds) != 1 || int64(binary.BigEndian.Uint64(c.tag[:])) != at || !isTCP(fds[0]) {
		closeFDs(fds)
		return -1, errHeaderFDs
	}
	return fds[0], nil
}

// isTCP reports whether fd is a TCP socket, in one raw getsockopt.
func isTCP(fd int) bool {
	var proto int32
	n := uint32(unsafe.Sizeof(proto))
	_, _, e := syscall.RawSyscall6(syscall.SYS_GETSOCKOPT, uintptr(fd), syscall.SOL_SOCKET, syscall.SO_PROTOCOL, uintptr(unsafe.Pointer(&proto)), uintptr(unsafe.Pointer(&n)), 0)
	return e == 0 && proto == syscall.IPPROTO_TCP
}

// noSocketFor checks that no socket message waits for the header at
// offset at, which carries none, nor for any header before it: it peeks at
// the next message's tag and leaves the message, which may be a later
// header's, where it is.
func (c *passConn) noSocketFor(at int64) error {
	c.peek = true
	err := c.rc.Control(c.recv)
	c.peek = false
	switch {
	case err != nil:
		return err
	case c.errno == syscall.EAGAIN, c.errno == 0 && c.n == 0:
		return nil // nothing waits, or the front end's socket is closed
	case c.n == tagLen && int64(binary.BigEndian.Uint64(c.tag[:])) > at:
		return nil
	}
	return errHeaderFDs
}

// appendRights appends the descriptors the SCM_RIGHTS messages in oob
// carry, as syscall.ParseUnixRights reads them, without its allocations.
func appendRights(fds []int, oob []byte) []int {
	const align = int(unsafe.Sizeof(uintptr(0)))
	hdr := syscall.CmsgLen(0)
	for len(oob) >= hdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
		n := int(h.Len)
		if n < hdr || n > len(oob) {
			break
		}
		if h.Level == syscall.SOL_SOCKET && h.Type == syscall.SCM_RIGHTS {
			for data := oob[hdr:n]; len(data) >= 4; data = data[4:] {
				fds = append(fds, int(int32(binary.NativeEndian.Uint32(data))))
			}
		}
		oob = oob[min((n+align-1)&^(align-1), len(oob)):]
	}
	return fds
}

func closeFDs(fds []int) {
	for _, fd := range fds {
		syscall.Close(fd)
	}
}

// closeFD closes fd, unless it is -1, no descriptor.
func closeFD(fd int) {
	if fd >= 0 {
		syscall.Close(fd)
	}
}

// headerOffset is the offset in raw's stream of the header br is about
// to read, where raw is a pass transport; 0 elsewhere.
func headerOffset(raw net.Conn, br *bufio.Reader) int64 {
	if c, ok := raw.(*passConn); ok {
		return c.read - int64(br.Buffered())
	}
	return 0
}

// headerSocket takes the client's socket that the header at offset at on
// raw carries where want, the header's flags, calls for one, and checks
// that none came for it otherwise: -1 for none. Only a pass transport
// carries one.
func headerSocket(raw net.Conn, at int64, want bool) (int, error) {
	c, ok := raw.(*passConn)
	switch {
	case !ok && want:
		return -1, errHeaderFDs
	case !ok:
		return -1, nil
	case want:
		return c.takeSocket(at)
	}
	return -1, c.noSocketFor(at)
}

// carriesSockets reports whether c is a pass transport (DialPass), the
// only kind a client's socket can go over.
func carriesSockets(c net.Conn) bool {
	_, ok := c.(*passConn)
	return ok
}

// sendWithSocket writes b, which is not empty and has a header at b[at:],
// to the pass transport c, with the client's socket for that header. On
// an error the socket may or may not have gone. It is not safe for
// concurrent use on one transport.
func sendWithSocket(c net.Conn, b []byte, at int, client syscall.RawConn) error {
	pc, ok := c.(*passConn)
	if !ok {
		return errPassUnsupported
	}
	return pc.sendSocket(b, at, client)
}

// peerUID returns the user of the process at the far end of a unix socket.
func peerUID(c *net.UnixConn) (int, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return 0, err
	}
	var cred *syscall.Ucred
	var cerr error
	if err := rc.Control(func(fd uintptr) {
		cred, cerr = syscall.GetsockoptUcred(int(fd), syscall.SOL_SOCKET, syscall.SO_PEERCRED)
	}); err != nil {
		return 0, err
	}
	if cerr != nil {
		return 0, cerr
	}
	return int(cred.Uid), nil
}

var errPassPeer = errors.New("handoff: pass address owned by another user")

// DialPass opens a transport to the pass address of the Listener whose TCP
// address reads addr, spelled exactly as its Addr().String() spells it. It
// fails, and the caller dials the TCP address, where no such Listener
// answers on this host, or where the one that does is another user's. The
// transport carries sessions as a TCP one does, over a pipe each way that
// it sends the Listener in its first message, and a client's socket
// besides (SessionWriter.Split, SessionWriter.Pass). It does not wait for
// the Listener to accept it.
func DialPass(addr string) (net.Conn, error) {
	uc, err := net.DialUnix("unix", nil, &net.UnixAddr{Name: passPrefix + addr, Net: "unix"})
	if err != nil {
		return nil, err
	}
	if uid, err := peerUID(uc); err != nil || uid != os.Getuid() {
		uc.Close()
		return nil, errPassPeer
	}
	// req carries the stream to the Listener, ans the stream back; the
	// Listener gets req's read end and ans's write end.
	var req, ans [2]int
	if err := syscall.Pipe2(req[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK); err != nil {
		uc.Close()
		return nil, err
	}
	if err := syscall.Pipe2(ans[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK); err != nil {
		closeFDs(req[:])
		uc.Close()
		return nil, err
	}
	_, _, err = uc.WriteMsgUnix(make([]byte, tagLen), syscall.UnixRights(req[0], ans[1]), nil)
	closeFDs([]int{req[0], ans[1]})
	var sock *os.File
	if err == nil {
		sock, err = detach(uc)
	}
	if err != nil {
		closeFDs([]int{ans[0], req[1]})
		uc.Close()
		return nil, err
	}
	return newPassConn(sock, uc.LocalAddr(), uc.RemoteAddr(), os.NewFile(uintptr(ans[0]), "pass answers"), os.NewFile(uintptr(req[1]), "pass requests")), nil
}
