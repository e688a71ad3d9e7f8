package handoff

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// frontEndPair builds the front end's end of a pass transport over a
// socket pair and two pipes, and returns with it the test's ends: the
// socket's peer, the request pipe's read end and the answer pipe's write
// end.
func frontEndPair(t *testing.T) (fe *passConn, peer int, reqR, ansW *os.File) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fds[1]) })
	ansR, ansW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ansW.Close() })
	reqR, reqW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reqR.Close() })
	fe = newPassConn(os.NewFile(uintptr(fds[0]), "front"), nil, nil, ansR, reqW)
	t.Cleanup(func() { fe.Close() })
	return fe, fds[1], reqR, ansW
}

// tcpPair returns both ends of a loopback TCP connection: the one a front
// end accepts, and its client.
func tcpPair(t *testing.T) (accepted *net.TCPConn, client net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c.(*net.TCPConn), client
}

// TestSplitWaitsOffTheProcessor: the split header's socket message is
// sent raw only while the socket has room. On a socket the back end has
// stopped reading, the send waits through the scheduler, so that with one
// processor every other goroutine goes on meanwhile; once the back end
// reads, the message arrives with the client's socket, tagged with the
// offset at which its header begins in the stream.
func TestSplitWaitsOffTheProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fe, peer, reqR, _ := frontEndPair(t)
	sock := int(fe.sock.Fd())
	accepted, _ := tcpPair(t)
	rc, err := accepted.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}

	// A session with no socket first, so that the split header's offset is
	// not the stream's start.
	w := NewTransportWriter(fe)
	if err := w.Handoff("192.0.2.1:4000", []byte("GET /a HTTP/1.1\r\nHost: t\r\n\r\n"), FlagRehandoff); err != nil {
		t.Fatal(err)
	}
	at := fe.wrote + 4 // behind the end-of-session record the split header pays

	// Fill the socket until a message of one byte would have to wait.
	filled := 0
	for _, size := range []int{32 << 10, 1} {
		chunk := make([]byte, size)
		for {
			n, err := syscall.SendmsgN(sock, chunk, nil, nil, syscall.MSG_DONTWAIT)
			if err == syscall.EAGAIN {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			filled += n
		}
	}

	// The back end reads the filler, and nothing else, in another process
	// a second from now. A send that held the one processor would hold
	// every goroutine here until then, a reader of the test's own among
	// them.
	dup, err := syscall.Dup(peer)
	if err != nil {
		t.Fatal(err)
	}
	peerFile := os.NewFile(uintptr(dup), "peer")
	drain := exec.Command("sh", "-c", "sleep 1; exec dd iflag=fullblock bs=$0 count=1 of=/dev/null status=none", strconv.Itoa(filled))
	drain.Stdin = peerFile
	if err := drain.Start(); err != nil {
		t.Fatal(err)
	}
	peerFile.Close()

	done := make(chan error, 1)
	go func() {
		done <- w.Split(rc, "192.0.2.1:4000", []byte("GET /b HTTP/1.1\r\nHost: t\r\n\r\n"), FlagRehandoff)
	}()
	start := time.Now()
	for range 20 {
		time.Sleep(time.Millisecond)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("20 sleeps of 1ms took %v while Split waited: the send held the processor", took)
	}
	select {
	case err := <-done:
		t.Fatalf("Split returned (%v) while the socket was full", err)
	default:
	}
	if err := drain.Wait(); err != nil {
		t.Fatalf("draining the socket: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Split still waits with the socket drained")
	}

	var tag [tagLen]byte
	oob := make([]byte, syscall.CmsgSpace(2*4))
	n, oobn, flags, _, err := syscall.Recvmsg(peer, tag[:], oob, syscall.MSG_CMSG_CLOEXEC)
	if err != nil {
		t.Fatal(err)
	}
	fds := appendRights(nil, oob[:oobn])
	defer closeFDs(fds)
	if n != tagLen || flags&syscall.MSG_CTRUNC != 0 || len(fds) != 1 {
		t.Fatalf("message of %d bytes, flags %#x, %d descriptors; want %d bytes with one descriptor", n, flags, len(fds), tagLen)
	}
	if got := int64(binary.BigEndian.Uint64(tag[:])); got != at {
		t.Fatalf("message tagged %d, want %d, where the split header begins", got, at)
	}
	sa, err := syscall.Getsockname(fds[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sa.(*syscall.SockaddrInet4).Port, accepted.LocalAddr().(*net.TCPAddr).Port; got != want {
		t.Fatalf("the descriptor is a socket on port %d, want the client's connection, on %d", got, want)
	}

	// The stream holds the split header at the tagged offset.
	stream := make([]byte, fe.wrote)
	if _, err := io.ReadFull(reqR, stream); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(bytes.NewReader(stream[at:]))
	if err != nil {
		t.Fatal(err)
	}
	if h.Flags&FlagSplit == 0 || string(h.InitialData) != "GET /b HTTP/1.1\r\nHost: t\r\n\r\n" {
		t.Fatalf("header at the tagged offset: flags %#x, data %q; want the split session's", h.Flags, h.InitialData)
	}
}

// TestFrontEndPipeCallsAllocateNothing: the front end's calls on a pass
// transport's pipes, a request written in a frame and a done record read,
// allocate nothing.
func TestFrontEndPipeCallsAllocateNothing(t *testing.T) {
	fe, _, _, ansW := frontEndPair(t)
	w := NewTransportWriter(fe)
	if err := w.Handoff("192.0.2.1:4000", []byte("GET /a HTTP/1.1\r\nHost: t\r\n\r\n"), FlagRehandoff); err != nil {
		t.Fatal(err)
	}
	head := []byte("GET /x HTTP/1.1\r\nHost: t\r\n\r\n")
	// 201 frames of 33 bytes fit the request pipe: nobody need read it.
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := w.Write(head); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a request's pipe write allocates %v times, want 0", allocs)
	}

	rec := appendDone(nil, Done{Written: 8192, Responses: 1, Open: true})
	br := bufio.NewReader(fe)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := ansW.Write(rec); err != nil {
			t.Fatal(err)
		}
		if d, ok, err := ReadDone(br); err != nil || !ok || d.Written != 8192 {
			t.Fatalf("ReadDone = %+v, %v, %v", d, ok, err)
		}
	}); allocs != 0 {
		t.Fatalf("a done record's pipe read allocates %v times, want 0", allocs)
	}
}

// TestRawIOReportsAsARead: the raw calls end as a plain Read and Write do:
// io.EOF at the peer's close, the deadline's error at a deadline, and the
// errno under its call's name.
func TestRawIOReportsAsARead(t *testing.T) {
	fe, _, _, ansW := frontEndPair(t)
	fe.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := fe.Read(make([]byte, 8)); !isTimeout(err) {
		t.Fatalf("Read past the deadline: %v, want a timeout", err)
	}
	fe.SetReadDeadline(time.Time{})
	ansW.Close()
	if n, err := fe.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Fatalf("Read after the writer closed = %d, %v; want 0, EOF", n, err)
	}
	fe2, _, reqR, _ := frontEndPair(t)
	reqR.Close()
	_, err := fe2.Write([]byte("x"))
	if se, ok := err.(*os.SyscallError); !ok || se.Syscall != "write" || se.Err != syscall.EPIPE {
		t.Fatalf("Write to a pipe with no reader: %v, want write: EPIPE", err)
	}
}
