package handoff

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
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
// serves each as the TCP ones are served (handshake). A peer of another
// user is closed and counted in Rejected.
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
		go l.handshake(newRightsConn(uc, &l.rejected))
	}
}

// oobRoom is the control buffer of every read of a pass transport: room
// for two descriptors, so that a second is seen, not cut off.
var oobRoom = syscall.CmsgSpace(2 * 4)

var (
	errTruncated = errors.New("handoff: descriptors truncated (MSG_CTRUNC)")
	errStrayFDs  = errors.New("handoff: descriptors where none belong")
)

// rightsConn is a pass transport: a unix stream connection that is read
// only with recvmsg, so that no descriptor arriving on it is silently
// dropped. Descriptors queue until a header takes them (takeFDs). On a
// front end's transport, where none is ever due, one is an error. A read
// that finds MSG_CTRUNC ends the transport: the error is sticky, and it is
// counted once in rejected, where there is a counter. Its sendmsg and
// recvmsg calls run in callbacks built once, with their arguments and
// results in the struct, so that neither allocates.
type rightsConn struct {
	*net.UnixConn
	rc    syscall.RawConn
	queue bool // descriptors are due: the Listener's end

	// recv's argument and results.
	recv        func(fd uintptr) bool
	p           []byte
	n, oobn     int
	flags       int
	errno       syscall.Errno
	oob         []byte
	sticky      error
	rejected    *atomic.Uint64
	fdMu        sync.Mutex // fds: Close may run while a read is in progress
	fds         []int
	closedQueue bool

	// attach runs under the client socket's Control and sends out with
	// its descriptor in rights (sendWithSocket): send's argument and
	// results.
	attach func(clientFD uintptr)
	send   func(fd uintptr) bool
	out    []byte
	outN   int
	outErr error
	rights []byte
}

func newRightsConn(uc *net.UnixConn, rejected *atomic.Uint64) *rightsConn {
	c := &rightsConn{UnixConn: uc, oob: make([]byte, oobRoom), queue: rejected != nil, rejected: rejected}
	c.rc, _ = uc.SyscallConn()
	c.recv = func(fd uintptr) bool {
		iov := syscall.Iovec{Base: &c.p[0]}
		iov.SetLen(len(c.p))
		msg := syscall.Msghdr{Iov: &iov, Iovlen: 1, Control: &c.oob[0]}
		msg.SetControllen(len(c.oob))
		for {
			n, _, e := syscall.Syscall(syscall.SYS_RECVMSG, fd, uintptr(unsafe.Pointer(&msg)), syscall.MSG_CMSG_CLOEXEC)
			switch e {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false
			}
			c.n, c.oobn, c.flags, c.errno = int(n), int(msg.Controllen), int(msg.Flags), e
			return true
		}
	}
	c.rights = syscall.UnixRights(0)
	c.attach = func(clientFD uintptr) {
		binary.NativeEndian.PutUint32(c.rights[syscall.CmsgLen(0):], uint32(clientFD))
		if err := c.rc.Write(c.send); err != nil {
			c.outErr = err
		}
	}
	c.send = func(fd uintptr) bool {
		iov := syscall.Iovec{Base: &c.out[0]}
		iov.SetLen(len(c.out))
		msg := syscall.Msghdr{Iov: &iov, Iovlen: 1, Control: &c.rights[0]}
		msg.SetControllen(len(c.rights))
		for {
			n, _, e := syscall.Syscall(syscall.SYS_SENDMSG, fd, uintptr(unsafe.Pointer(&msg)), syscall.MSG_NOSIGNAL)
			switch e {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false
			case 0:
				c.outN = int(n)
			default:
				c.outErr = e
			}
			return true
		}
	}
	return c
}

// Read implements net.Conn with one recvmsg.
func (c *rightsConn) Read(p []byte) (int, error) {
	if c.sticky != nil {
		return 0, c.sticky
	}
	if len(p) == 0 {
		return 0, nil
	}
	c.p = p
	err := c.rc.Read(c.recv)
	c.p = nil
	if err != nil {
		return 0, err
	}
	if c.errno != 0 {
		return 0, c.errno
	}
	if c.oobn > 0 {
		c.received()
	}
	if c.sticky != nil {
		return 0, c.sticky
	}
	if c.n == 0 {
		return 0, io.EOF
	}
	return c.n, nil
}

// received takes the descriptors the last read carried: into the queue,
// or closed with an error where none are due or the kernel cut some off.
func (c *rightsConn) received() {
	c.fdMu.Lock()
	defer c.fdMu.Unlock()
	queued := len(c.fds)
	c.fds = appendRights(c.fds, c.oob[:c.oobn])
	switch {
	case c.flags&syscall.MSG_CTRUNC != 0:
		c.sticky = errTruncated
		if c.rejected != nil {
			c.rejected.Add(1)
		}
	case !c.queue && len(c.fds) > queued:
		c.sticky = errStrayFDs
	}
	if c.sticky != nil || c.closedQueue {
		closeFDs(c.fds[queued:])
		c.fds = c.fds[:queued]
	}
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

// truncated reports whether the transport ended on MSG_CTRUNC, which the
// read already counted.
func (c *rightsConn) truncated() bool { return c.sticky == errTruncated }

// takeFDs empties the queue and returns what it held: the caller's now,
// in an array the queue reuses from the transport's next read on.
func (c *rightsConn) takeFDs() []int {
	c.fdMu.Lock()
	defer c.fdMu.Unlock()
	fds := c.fds
	c.fds = c.fds[:0]
	return fds
}

// Close closes the transport and every descriptor still queued on it.
func (c *rightsConn) Close() error {
	c.fdMu.Lock()
	fds := c.fds
	c.fds, c.closedQueue = nil, true
	c.fdMu.Unlock()
	closeFDs(fds)
	return c.UnixConn.Close()
}

func closeFDs(fds []int) {
	for _, fd := range fds {
		syscall.Close(fd)
	}
}

// takeFDs returns the descriptors queued on a transport, none on one that
// carries none.
func takeFDs(raw net.Conn) []int {
	if rc, ok := raw.(*rightsConn); ok {
		return rc.takeFDs()
	}
	return nil
}

// truncatedTransport reports whether raw ended on MSG_CTRUNC, counted when
// it was read: what fails on it then is not counted again.
func truncatedTransport(raw net.Conn) bool {
	rc, ok := raw.(*rightsConn)
	return ok && rc.truncated()
}

// carriesSockets reports whether c is a pass transport (DialPass), the
// only kind a client's socket can go over.
func carriesSockets(c net.Conn) bool {
	_, ok := c.(*rightsConn)
	return ok
}

// sendWithSocket writes b, which is not empty, to the pass transport c
// with the client's socket attached. On an error the socket may or may not
// have gone. It is not safe for concurrent use on one transport.
func sendWithSocket(c net.Conn, b []byte, client syscall.RawConn) error {
	uc, ok := c.(*rightsConn)
	if !ok {
		return errPassUnsupported
	}
	uc.out, uc.outN, uc.outErr = b, 0, nil
	err := client.Control(uc.attach)
	if err == nil {
		err = uc.outErr
	}
	if err == nil && uc.outN < len(b) {
		// A stream may take part of a message; the socket went with it.
		_, err = uc.Write(b[uc.outN:])
	}
	uc.out = nil
	return err
}

// clientSocket is a split session's copy of its client's socket. It is
// written with writev(2) on the bare descriptor, outside the runtime's
// poller: registered there when its header arrives, as an os.File or a
// net.TCPConn, the copy measured slower on both benchmark workloads that
// open a split session per connection or per request (DESIGN.md, "Answering
// directly, reading still"). Only a response that finds the socket full
// hands the descriptor to the poller, as an os.File, for the rest of the
// session, so that the rest waits there and not in a blocked thread. Close
// may come from any goroutine (Listener.Close), so the bare descriptor is
// used and closed only under mu, and no write can reach a descriptor number
// the process has since reused; the os.File's Close waits for a write in
// progress on it to return.
type clientSocket struct {
	mu   sync.Mutex
	open bool     // there is a socket: the zero value has none
	fd   int      // its descriptor
	file *os.File // the descriptor once a write found the socket full
	iov  []syscall.Iovec
}

// iovMax is IOV_MAX, the most iovecs one writev takes.
const iovMax = 1024

// reset makes fd the socket.
func (s *clientSocket) reset(fd int) {
	s.mu.Lock()
	s.open, s.fd, s.file = true, fd, nil
	s.mu.Unlock()
}

var errClientClosed = errors.New("handoff: the client's socket is closed")

// Write writes p whole, or fails; errClientClosed once the socket is
// closed.
func (s *clientSocket) Write(p []byte) (int, error) {
	v := net.Buffers{p}
	n, err := s.WriteBuffers(&v)
	return int(n), err
}

// WriteBuffers writes v whole, or fails, consuming it: what the bare
// descriptor takes, then, once the socket is full, the rest through the
// os.File, in order.
func (s *clientSocket) WriteBuffers(v *net.Buffers) (int64, error) {
	s.mu.Lock()
	n, err := s.writeBare(v)
	f := s.file
	s.mu.Unlock()
	for ; err == nil && len(*v) > 0; *v = (*v)[1:] {
		m, werr := f.Write((*v)[0])
		n, err = n+int64(m), werr
	}
	return n, err
}

// writeBare writes v to the bare descriptor, IOV_MAX iovecs a writev, until
// it is written or the socket is full, when it hands the descriptor to file
// for the rest. It is called with mu held.
func (s *clientSocket) writeBare(v *net.Buffers) (int64, error) {
	switch {
	case !s.open:
		return 0, errClientClosed
	case s.file != nil:
		return 0, nil
	}
	var written int64
	for len(*v) > 0 {
		iov := s.iov[:0]
		for _, b := range *v {
			if len(iov) == iovMax {
				break
			}
			if len(b) > 0 {
				iov = append(iov, syscall.Iovec{Base: &b[0]})
				iov[len(iov)-1].SetLen(len(b))
			}
		}
		if s.iov = iov; len(iov) == 0 {
			*v = (*v)[len(*v):]
			break
		}
		n, _, e := syscall.Syscall(syscall.SYS_WRITEV, uintptr(s.fd), uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
		clear(iov)
		switch e {
		case 0:
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			s.file = os.NewFile(uintptr(s.fd), "client")
			return written, nil
		default:
			return written, e
		}
		written += int64(n)
		consume(v, int64(n))
	}
	return written, nil
}

// consume drops v's first n bytes, as net.Buffers.WriteTo does with what it
// wrote.
func consume(v *net.Buffers, n int64) {
	for len(*v) > 0 && n >= int64(len((*v)[0])) {
		n -= int64(len((*v)[0]))
		*v = (*v)[1:]
	}
	if n > 0 {
		(*v)[0] = (*v)[0][n:]
	}
}

// close closes the socket copy, once.
func (s *clientSocket) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case !s.open:
	case s.file != nil:
		s.file.Close()
	default:
		syscall.Close(s.fd)
	}
	s.open, s.file = false, nil
}

// fileTCPConn makes fd, which it takes over, a net.TCPConn.
func fileTCPConn(fd int) (*net.TCPConn, error) {
	f := os.NewFile(uintptr(fd), "passed")
	nc, err := net.FileConn(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	tc, ok := nc.(*net.TCPConn)
	if !ok {
		nc.Close()
		return nil, errPassNotTCP
	}
	return tc, nil
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
// transport carries sessions as a TCP one does, and a client's socket
// besides (SessionWriter.Split, SessionWriter.Pass).
func DialPass(addr string) (net.Conn, error) {
	c, err := net.DialUnix("unix", nil, &net.UnixAddr{Name: passPrefix + addr, Net: "unix"})
	if err != nil {
		return nil, err
	}
	if uid, err := peerUID(c); err != nil || uid != os.Getuid() {
		c.Close()
		return nil, errPassPeer
	}
	return newRightsConn(c, nil), nil
}
