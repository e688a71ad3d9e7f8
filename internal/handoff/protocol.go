// Package handoff implements a user-space analogue of the LARD paper's TCP
// connection handoff protocol (Section 5).
//
// In the paper, the front end accepts the client's TCP connection, inspects
// the request, and hands the *established kernel connection state* to the
// chosen back end, which then replies directly to the client; the front end
// only forwards client→server packets (mostly ACKs) through a fast
// forwarding module. A user-space Go library cannot migrate kernel TCP
// state, so this package substitutes a faithful architectural analogue:
//
//   - The front end dials the chosen back end and sends a handoff message
//     carrying the client's address and the bytes already read from the
//     client (the request head) — the analogue of transferring the
//     connection state.
//   - The back end wraps the handed-off stream in a net.Conn whose
//     RemoteAddr is the original client's, and a handoff.Listener feeds
//     those connections to an unmodified net/http server — preserving the
//     paper's claim that "server applications can run unmodified on the
//     back-end nodes".
//   - The paper's forwarding module — the fast path for bytes that follow
//     the handoff — is the front end's relay loop (internal/frontend over
//     internal/httprelay): it keeps HTTP framing so a connection can be
//     handed off again at a message boundary, and it additionally relays
//     back-end→client data, which the kernel implementation sent directly.
//   - Where front end and back end share a Linux host, the handoff carries
//     the client's socket itself (pass.go): the back end writes its
//     responses to the client directly, as the paper's does, and the front
//     end forwards only the requests. A connection that will not be handed
//     off again is passed whole, and nothing of it crosses the front end.
//
// The roles — dispatcher (policy), handoff (transfer), forwarding (dumb
// fast path) — and their layering match Figure 15 of the paper.
package handoff

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Wire format: magic "LARD", version byte, flags byte, client address
// (uint16 length + bytes), initial data (uint32 length + bytes).
const (
	magic   = "LARD"
	version = 1

	// MaxAddrLen bounds the client address field.
	MaxAddrLen = 1 << 10

	// MaxInitialData bounds the request-head bytes carried in the handoff
	// message (a request head larger than this cannot be handed off).
	MaxInitialData = 1 << 20
)

// Flags for Header.Flags.
const (
	// FlagRehandoff marks a connection that may be handed off again for
	// subsequent requests (the paper's HTTP/1.1 multiple-handoff design).
	FlagRehandoff byte = 1 << 0

	// FlagSessionFramed marks a session-sequenced handoff (protocol v2,
	// session.go): the bytes following this header on the front-end→back-
	// end direction are length-prefixed frames, terminated by an
	// end-of-session record, after which the same TCP connection carries
	// the next handoff header. This is what lets one back-end connection
	// serve a sequence of handed-off client sessions, amortizing the TCP
	// dial the paper's ~300µs handoff budget cannot afford per request.
	FlagSessionFramed byte = 1 << 1

	// FlagSplit marks a session whose header carries the client's socket
	// (pass.go): the server may answer the client on it directly, and the
	// front end goes on sending the requests as frames.
	FlagSplit byte = 1 << 2

	// FlagPass marks a header that passes the client's whole connection
	// (pass.go): no frames follow, only the idle bound.
	FlagPass byte = 1 << 3
)

// Header is the handoff message exchanged from front end to back end when
// a connection is transferred.
type Header struct {
	// Flags carries handoff options.
	Flags byte

	// ClientAddr is the original client's network address ("ip:port"),
	// reported to the back-end application as the connection's remote
	// address.
	ClientAddr string

	// InitialData holds the bytes the front end already consumed from the
	// client — at least the first request's head — which the back end
	// must process before reading from the connection proper.
	InitialData []byte
}

// ErrBadHandshake is returned when the peer does not speak the handoff
// protocol.
var ErrBadHandshake = errors.New("handoff: bad handshake")

// Send transfers an accepted client connection's state to the back end
// over backendConn: the client address and the already-consumed request
// head.
func Send(backendConn net.Conn, clientAddr string, initialData []byte, flags byte) error {
	return WriteHeader(backendConn, Header{
		Flags:       flags,
		ClientAddr:  clientAddr,
		InitialData: initialData,
	})
}

// WriteHeader serializes the handoff message to w.
func WriteHeader(w io.Writer, h Header) error {
	if err := checkHeader(h.ClientAddr, h.InitialData); err != nil {
		return err
	}
	buf := make([]byte, 0, fixedLen+len(h.ClientAddr)+4+len(h.InitialData))
	_, err := w.Write(appendHeader(buf, h.Flags, h.ClientAddr, h.InitialData))
	return err
}

// fixedLen is the header's fixed part: magic, version, flags and the
// address length.
const fixedLen = len(magic) + 2 + 2

// Static, like the frame-path errors: Handoff is //lard:noalloc.
var (
	errAddrTooLong    = errors.New("handoff: client address exceeds MaxAddrLen")
	errInitialTooLong = errors.New("handoff: initial data exceeds MaxInitialData")
)

func checkHeader(clientAddr string, initialData []byte) error {
	if len(clientAddr) > MaxAddrLen {
		return errAddrTooLong
	}
	if len(initialData) > MaxInitialData {
		return errInitialTooLong
	}
	return nil
}

// appendHeader appends the wire form of a handoff message to buf.
//
//lard:noalloc
func appendHeader(buf []byte, flags byte, clientAddr string, initialData []byte) []byte {
	buf = append(buf, magic...)
	buf = append(buf, version, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(clientAddr)))
	buf = append(buf, clientAddr...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(initialData)))
	return append(buf, initialData...)
}

// decodeFixed checks the header's fixed part and returns its flags and
// the length of the address that follows.
func decodeFixed(fixed []byte) (flags byte, addrLen int, err error) {
	if string(fixed[:len(magic)]) != magic {
		return 0, 0, fmt.Errorf("%w: bad magic %q", ErrBadHandshake, fixed[:len(magic)])
	}
	if fixed[len(magic)] != version {
		return 0, 0, fmt.Errorf("%w: unsupported version %d", ErrBadHandshake, fixed[len(magic)])
	}
	addrLen = int(binary.BigEndian.Uint16(fixed[len(magic)+2:]))
	if addrLen > MaxAddrLen {
		return 0, 0, fmt.Errorf("%w: address length %d", ErrBadHandshake, addrLen)
	}
	return fixed[len(magic)+1], addrLen, nil
}

// decodeDataLen reads the initial-data length field.
func decodeDataLen(b []byte) (int, error) {
	dataLen := binary.BigEndian.Uint32(b)
	if dataLen > MaxInitialData {
		return 0, fmt.Errorf("%w: initial data length %d", ErrBadHandshake, dataLen)
	}
	return int(dataLen), nil
}

// ReadHeader parses a handoff message from r into buffers of its own. The
// listener does not use it: it reads the same fields out of its reader's
// window (readHeaderFields) and leaves the initial data where it lies.
func ReadHeader(r io.Reader) (Header, error) {
	var h Header
	var fixed [fixedLen]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	flags, addrLen, err := decodeFixed(fixed[:])
	if err != nil {
		return h, err
	}
	h.Flags = flags
	rest := make([]byte, addrLen+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		return h, fmt.Errorf("%w: truncated address: %v", ErrBadHandshake, err)
	}
	h.ClientAddr = string(rest[:addrLen])
	dataLen, err := decodeDataLen(rest[addrLen:])
	if err != nil {
		return h, err
	}
	h.InitialData = make([]byte, dataLen)
	if _, err := io.ReadFull(r, h.InitialData); err != nil {
		return h, fmt.Errorf("%w: truncated initial data: %v", ErrBadHandshake, err)
	}
	return h, nil
}

// readHeaderFields parses the next handoff message's fields out of br's
// window and consumes them, leaving br at the first of the dataLen bytes
// of initial data: the session reads those straight from br.
func readHeaderFields(br *bufio.Reader) (flags byte, client net.Addr, dataLen int, err error) {
	fixed, err := br.Peek(fixedLen)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	flags, addrLen, err := decodeFixed(fixed)
	if err != nil {
		return 0, nil, 0, err
	}
	b, err := br.Peek(fixedLen + addrLen + 4)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%w: truncated address: %v", ErrBadHandshake, err)
	}
	if dataLen, err = decodeDataLen(b[fixedLen+addrLen:]); err != nil {
		return 0, nil, 0, err
	}
	client = parseClientAddr(string(b[fixedLen : fixedLen+addrLen]))
	br.Discard(len(b))
	return flags, client, dataLen, nil
}
