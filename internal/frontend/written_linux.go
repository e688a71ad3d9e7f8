package frontend

import (
	"encoding/binary"
	"syscall"
	"unsafe"
)

// tcp_info offsets (linux/tcp.h) of the fields socketWritten reads; the
// last of them came with Linux 4.19.
const (
	tcpiNotsentBytes = 144
	tcpiBytesSent    = 200
	tcpiBytesRetrans = 208
	tcpInfoLen       = 216
)

// socketWritten returns how many bytes have been written to the TCP
// socket rc by anyone holding it: bytes sent once, and bytes queued and not
// yet sent. One TCP_INFO read takes all three counts under the socket's
// lock, so the sum is exact; read apart (the acked count and SIOCOUTQ), a
// byte acked in between would be counted twice or not at all. The read
// cannot wait, so it is made raw. ok is false where the kernel does not
// report them.
func socketWritten(rc syscall.RawConn) (n int64, ok bool) {
	if rc == nil {
		return 0, false
	}
	var info [tcpInfoLen + 64]byte
	size := uint32(len(info))
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.RawSyscall6(syscall.SYS_GETSOCKOPT, fd, syscall.IPPROTO_TCP, syscall.TCP_INFO,
			uintptr(unsafe.Pointer(&info[0])), uintptr(unsafe.Pointer(&size)), 0)
	}); err != nil || errno != 0 || size < tcpInfoLen {
		return 0, false
	}
	sent := binary.NativeEndian.Uint64(info[tcpiBytesSent:])
	retrans := binary.NativeEndian.Uint64(info[tcpiBytesRetrans:])
	notsent := binary.NativeEndian.Uint32(info[tcpiNotsentBytes:])
	return int64(sent-retrans) + int64(notsent), true
}
