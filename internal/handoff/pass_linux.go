package handoff

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// listenPasses opens a Listener's pass address, or returns nil where it
// has none: an address that is no TCP address, or a name already taken.
func listenPasses(addr net.Addr) net.Listener {
	if _, ok := addr.(*net.TCPAddr); !ok {
		return nil
	}
	ln, err := net.Listen("unixpacket", passPrefix+addr.String())
	if err != nil {
		return nil
	}
	return ln
}

// acceptPasses accepts channels on the pass address until Close. A peer
// of another user is closed and counted in Rejected.
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
		ch := c.(*net.UnixConn)
		if uid, err := peerUID(ch); err != nil || uid != l.passUID {
			l.rejected.Add(1)
			ch.Close()
			continue
		}
		l.addTransport(ch)
		go l.servePasses(ch)
	}
}

// servePasses runs one channel: read a pass message, yield its connection
// from Accept, wait for the server to close it, send the done record, and
// read the next one, for as long as the channel lives and its messages are
// good. The channel and a connection it carries are both in the transports
// Close ends.
func (l *Listener) servePasses(ch *net.UnixConn) {
	defer l.dropTransport(ch)
	closed := make(chan struct{}, 1)
	var rec []byte
	for {
		c, err := l.readPass(ch, closed)
		if err != nil {
			return
		}
		l.sessions.Add(1)
		l.passed.Add(1)
		l.addTransport(c.Conn)
		if !l.deliver(c) {
			l.dropTransport(c.Conn)
			return
		}
		select {
		case <-closed:
		case <-l.done:
			return
		}
		l.dropTransport(c.Conn) // closed by the server already: this forgets it
		rec = appendDone(rec[:0], c.written.Load())
		if _, err := ch.Write(rec); err != nil {
			return
		}
	}
}

// passBufs holds the buffers pass messages are read into: one per channel
// waiting for a message, given back once the message is copied out.
var passBufs = sync.Pool{New: func() any {
	b := make([]byte, fixedLen+MaxAddrLen+4+MaxPassData+idleLen)
	return &b
}}

var (
	errPassTruncated = errors.New("handoff: pass message or its descriptors truncated")
	errPassFDs       = errors.New("handoff: pass message without exactly one descriptor")
	errPassTrailing  = errors.New("handoff: bytes behind a pass message's initial data")
	errPassNotTCP    = errors.New("handoff: passed descriptor is no TCP socket")
	errPassIdle      = errors.New("handoff: pass message's idle bound is not positive")
)

// readPass reads the channel's next message and makes the connection it
// passes. A message that is not exactly one well-formed header and idle
// bound with one TCP socket attached is rejected: every descriptor it carried is closed,
// the rejection is counted once, and the error ends the channel. An error
// with no message (the front end closed the channel) is returned as is.
func (l *Listener) readPass(ch *net.UnixConn, closed chan<- struct{}) (*Conn, error) {
	bp := passBufs.Get().(*[]byte)
	defer passBufs.Put(bp)
	// Room for two descriptors, so that a second is seen, not cut off.
	oob := make([]byte, syscall.CmsgSpace(2*4))
	n, oobn, flags, _, err := ch.ReadMsgUnix(*bp, oob)
	fds := receivedFDs(oob[:oobn])
	if err != nil && len(fds) == 0 {
		return nil, err
	}
	c, err := l.passedConn((*bp)[:n], flags, fds, closed)
	if err != nil {
		l.rejected.Add(1)
		return nil, err
	}
	return c, nil
}

// receivedFDs returns the descriptors a message's control data carried.
func receivedFDs(oob []byte) []int {
	msgs, _ := syscall.ParseSocketControlMessage(oob)
	var fds []int
	for i := range msgs {
		if got, err := syscall.ParseUnixRights(&msgs[i]); err == nil {
			fds = append(fds, got...)
		}
	}
	return fds
}

// passedConn checks one pass message and makes its Conn. On an error every
// descriptor in fds has been closed.
func (l *Listener) passedConn(msg []byte, flags int, fds []int, closed chan<- struct{}) (*Conn, error) {
	r := bytes.NewReader(msg)
	h, err := ReadHeader(r)
	var bound int64
	if err == nil {
		err = binary.Read(r, binary.BigEndian, &bound)
	}
	switch {
	case flags&(syscall.MSG_TRUNC|syscall.MSG_CTRUNC) != 0:
		err = errPassTruncated
	case len(fds) != 1:
		err = errPassFDs
	case err == nil && r.Len() != 0:
		err = errPassTrailing
	case err == nil && bound <= 0:
		err = errPassIdle
	}
	if err != nil {
		for _, fd := range fds {
			syscall.Close(fd)
		}
		return nil, err
	}
	f := os.NewFile(uintptr(fds[0]), "passed")
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
	return &Conn{Conn: tc, initial: h.InitialData, clientAddr: tc.RemoteAddr(), idle: time.Duration(bound), closed: closed}, nil
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

// DialPass opens a channel to the pass address of the Listener whose TCP
// address reads addr, spelled exactly as its Addr().String() spells it. It
// fails, and the caller relays, where no such Listener answers on this
// host, or where the one that does is another user's.
func DialPass(addr string) (*PassChannel, error) {
	c, err := net.DialUnix("unixpacket", nil, &net.UnixAddr{Name: passPrefix + addr, Net: "unixpacket"})
	if err != nil {
		return nil, err
	}
	if uid, err := peerUID(c); err != nil || uid != os.Getuid() {
		c.Close()
		return nil, errPassPeer
	}
	return &PassChannel{uc: c}, nil
}

// Pass sends client to the back end in one message, with initial, every
// byte already read from it, clientAddr, its address as the front end
// formatted it, and idle, how long the back end may wait for each next
// request, which must be positive. On success
// the back end has its own descriptor for the client's socket and the
// caller closes its copy; on an error nothing was sent, the caller still
// owns the connection, and the channel is spent.
func (p *PassChannel) Pass(client *net.TCPConn, clientAddr string, initial []byte, idle time.Duration) error {
	if len(initial) > MaxPassData || len(clientAddr) > MaxAddrLen {
		return errPassTooLong
	}
	if idle <= 0 {
		return errPassIdle
	}
	p.buf = binary.BigEndian.AppendUint64(appendHeader(p.buf[:0], 0, clientAddr, initial), uint64(idle))
	rc, err := client.SyscallConn()
	if err != nil {
		return err
	}
	var werr error
	if err := rc.Control(func(fd uintptr) {
		_, _, werr = p.uc.WriteMsgUnix(p.buf, syscall.UnixRights(int(fd)), nil)
	}); err != nil {
		return err
	}
	return werr
}
