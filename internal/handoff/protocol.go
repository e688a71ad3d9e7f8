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
//
// The roles — dispatcher (policy), handoff (transfer), forwarding (dumb
// fast path) — and their layering match Figure 15 of the paper.
package handoff

import (
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
	if len(h.ClientAddr) > MaxAddrLen {
		return fmt.Errorf("handoff: client address length %d exceeds %d", len(h.ClientAddr), MaxAddrLen)
	}
	if len(h.InitialData) > MaxInitialData {
		return fmt.Errorf("handoff: initial data length %d exceeds %d", len(h.InitialData), MaxInitialData)
	}
	buf := make([]byte, 0, len(magic)+2+2+len(h.ClientAddr)+4+len(h.InitialData))
	buf = append(buf, magic...)
	buf = append(buf, version, h.Flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(h.ClientAddr)))
	buf = append(buf, h.ClientAddr...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(h.InitialData)))
	buf = append(buf, h.InitialData...)
	_, err := w.Write(buf)
	return err
}

// ReadHeader parses a handoff message from r.
func ReadHeader(r io.Reader) (Header, error) {
	var h Header
	fixed := make([]byte, len(magic)+2+2)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if string(fixed[:len(magic)]) != magic {
		return h, fmt.Errorf("%w: bad magic %q", ErrBadHandshake, fixed[:len(magic)])
	}
	if fixed[len(magic)] != version {
		return h, fmt.Errorf("%w: unsupported version %d", ErrBadHandshake, fixed[len(magic)])
	}
	h.Flags = fixed[len(magic)+1]
	addrLen := binary.BigEndian.Uint16(fixed[len(magic)+2:])
	if addrLen > MaxAddrLen {
		return h, fmt.Errorf("%w: address length %d", ErrBadHandshake, addrLen)
	}
	addr := make([]byte, addrLen)
	if _, err := io.ReadFull(r, addr); err != nil {
		return h, fmt.Errorf("%w: truncated address: %v", ErrBadHandshake, err)
	}
	h.ClientAddr = string(addr)
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return h, fmt.Errorf("%w: truncated length: %v", ErrBadHandshake, err)
	}
	dataLen := binary.BigEndian.Uint32(lenBuf[:])
	if dataLen > MaxInitialData {
		return h, fmt.Errorf("%w: initial data length %d", ErrBadHandshake, dataLen)
	}
	h.InitialData = make([]byte, dataLen)
	if _, err := io.ReadFull(r, h.InitialData); err != nil {
		return h, fmt.Errorf("%w: truncated initial data: %v", ErrBadHandshake, err)
	}
	return h, nil
}
