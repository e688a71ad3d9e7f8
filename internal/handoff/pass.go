package handoff

import (
	"bufio"
	"encoding/binary"
	"errors"
	"math"
)

// Handing the client's socket over. Where a front end and a back end share
// a host, the handoff can be the paper's own: the back end writes its
// responses to the client's socket, and no response byte crosses the front
// end. A Listener on Linux also answers on an abstract unix stream address
// named after its TCP address (passPrefix + Addr().String(), e.g.
// "@lard-handoff/127.0.0.1:41234"). A connection to it (DialPass) is a
// session-framed transport like any other (session.go), pooled and reused
// by the front end: the same headers, data frames and end-of-session
// records. Two header flags add the client's socket, sent as the one
// SCM_RIGHTS descriptor of a message of its own ahead of the header:
//
//   - FlagSplit opens a split session. The front end keeps reading the
//     client's requests and sends them as data frames, as on any session.
//     A server that answers the client directly (Direct, asked for by
//     interface assertion; internal/backend's loop does) writes each
//     response to the client's socket and then calls Answered, which sends
//     a done record on the transport in the response's place. The
//     Listener's copy of the socket is closed at the session's
//     end-of-session record, or when the session or its transport ends.
//     Writes a server makes before Direct, such as net/http's own answer to
//     a request it does not hand over, go to the transport as on any
//     session, and the front end relays them: a split session degrades to
//     a relayed one, never breaks.
//   - FlagPass passes the whole connection. Its initial data is everything
//     the front end has read from the client, and it is followed by the
//     idle bound (int64 nanoseconds, big-endian, positive): how long the
//     server may wait for each next request, the front end's own bound,
//     which it can no longer enforce (IdleTimeout). No frames follow. The
//     pass is a session like any other: its conn reads the initial data
//     and then the socket, and writes to the socket, counting each
//     response (Answered). When the server closes it, or reads the
//     client's close and keeps the transport (NextSession), the Listener
//     sends one done record with the totals, and the transport is between
//     sessions again. Nothing may follow a pass message on the transport
//     until then.
//
// The done record is magic, the bytes the server wrote to the client
// (uint64), the responses it wrote (uint32) and one flags byte (doneOpen:
// the connection stays open behind the response), big-endian. A front end
// tells it from a relayed response by its magic, which starts no HTTP
// response.
//
// The transport's byte stream does not ride its unix socket. The dialer
// makes two pipes, one each way, and its first message on the socket
// carries the Listener's ends: the read end of the front end's request
// pipe and the write end of its answer pipe, exactly these two FIFOs, or
// the Listener refuses the transport. The stream's bytes, headers, frames,
// end-of-session records, done records and relayed responses, are those of
// a TCP transport, and a pipe wakes its writer only when it was full,
// where a unix stream's every read wakes the writer's poller (DESIGN.md,
// "The pass transport"). The socket carries descriptors only:
// each header that carries a client's socket is preceded there by one
// message of eight bytes, the header's offset in the front end's stream
// (big-endian), with the socket attached. The Listener takes that message
// without waiting when it has read the header (it was sent first), and
// anything else — none, another offset, a count other than one, a
// descriptor the kernel had to drop (MSG_CTRUNC), or a message waiting for
// a header that calls for no socket — is a rejection that ends the
// transport, and with it every descriptor still on its socket. The front
// end never reads its socket, and once the pipes have gone neither end's
// socket is in the runtime's poller (detach), so a message on it wakes
// neither. A rejected header's socket is closed with
// it; the front end, which still holds the client's connection after a
// split but not after a pass, answers or ends it. Each end of a transport
// holds three descriptors: the socket and two pipe ends.
//
// Only a process of the Listener's own user may connect (the peer's
// SO_PEERCRED), and DialPass holds the Listener to the same, so a name
// taken by another user leads nowhere. The abstract namespace belongs to
// the network namespace, so a name can only lead to the listener that owns
// that TCP address where the front end dials it.

// MaxPassData bounds the initial data of a pass message; a client that has
// sent more than this ahead of its first response is not passed.
const MaxPassData = 64 << 10

// passPrefix begins every pass address.
const passPrefix = "@lard-handoff/"

// doneLen is the done record's length: magic, bytes, responses, flags.
const doneLen = len(magic) + 8 + 4 + 1

// doneOpen marks a done record whose connection stays open.
const doneOpen = 1 << 0

// idleLen is the length of a pass message's idle bound.
const idleLen = 8

var (
	errPassUnsupported = errors.New("handoff: no descriptor passing on this system")
	errPassTooLong     = errors.New("handoff: pass message exceeds MaxPassData")
	errPassIdle        = errors.New("handoff: pass message's idle bound is not positive")
	errBadDone         = errors.New("handoff: malformed done record")
	errHeaderFDs       = errors.New("handoff: header without exactly the TCP socket its flags call for")
	errPassTrailing    = errors.New("handoff: bytes behind a pass message's idle bound")
)

// Done is a done record: a server wrote Written bytes in Responses
// responses straight to a client's socket, and the connection stays open
// behind them if Open.
type Done struct {
	Written   int64
	Responses uint32
	Open      bool
}

// appendDone appends d's wire form.
//
//lard:noalloc
func appendDone(b []byte, d Done) []byte {
	b = binary.BigEndian.AppendUint64(append(b, magic...), uint64(d.Written))
	b = binary.BigEndian.AppendUint32(b, d.Responses)
	var flags byte
	if d.Open {
		flags = doneOpen
	}
	return append(b, flags)
}

// ReadDone reads the done record that begins br, if one does: on a split
// session or a pass, where a back end answers in place of a response. When
// ok is false nothing was consumed and what begins br is something else,
// such as a response the server wrote to the transport for the caller to
// relay. An error means the transport is unusable: it ended, or sent a
// record that does not parse.
//
//lard:noalloc
func ReadDone(br *bufio.Reader) (d Done, ok bool, err error) {
	b, err := br.Peek(len(magic))
	switch {
	case err != nil:
		return d, false, err
	case string(b) != magic:
		return d, false, nil
	}
	if b, err = br.Peek(doneLen); err != nil {
		return d, false, err
	}
	written := binary.BigEndian.Uint64(b[len(magic):])
	flags := b[doneLen-1]
	if written > math.MaxInt64 || flags&^doneOpen != 0 {
		return d, false, errBadDone
	}
	d = Done{Written: int64(written), Responses: binary.BigEndian.Uint32(b[len(magic)+8:]), Open: flags&doneOpen != 0}
	br.Discard(doneLen)
	return d, true, nil
}
