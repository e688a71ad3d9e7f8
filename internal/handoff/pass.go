package handoff

import (
	"encoding/binary"
	"errors"
	"net"
)

// Passing a connection by descriptor. Where a front end and a back end
// share a host, the handoff can be the paper's own: the client's socket
// goes to the back end, which answers the client directly, and no byte of
// the connection crosses the front end again. A Listener on Linux also
// answers on an abstract unixpacket address named after its TCP address
// (passPrefix + Addr().String(), e.g. "@lard-handoff/127.0.0.1:41234").
// A channel to it carries, one at a time, pass messages:
//
//   - the handoff header (protocol.go's wire format) whose initial data is
//     everything the front end has read from the client: the first
//     request's head and any pipelined bytes behind it;
//   - the idle bound (int64 nanoseconds, big-endian, positive): how long
//     the server may wait for each next request, the front end's own bound
//     on a kept connection, which it can no longer enforce
//     (Conn.IdleTimeout);
//   - the client's socket, attached as the message's one SCM_RIGHTS
//     descriptor.
//
// The Listener yields the connection from Accept as a Conn and, once the
// server has closed it, answers with one done record: magic, then the
// bytes the server wrote to the client (uint64 big-endian). The channel is
// then free for the next pass. A channel whose message is rejected, or
// whose Listener closes, is closed instead. A rejected message's socket is
// closed with it (a full descriptor table, which makes the kernel drop the
// descriptor and set MSG_CTRUNC, is one such rejection): the sender has
// closed its copy already, so the client's connection ends unanswered.
//
// Only a process of the Listener's own user may open a channel (the peer's
// SO_PEERCRED), and DialPass holds the Listener to the same, so a name
// taken by another user leads nowhere. The abstract namespace belongs to
// the network namespace, so a name can only lead to the listener that owns
// that TCP address where the front end dials it.

// MaxPassData bounds the initial data a pass message carries; a client
// that has sent more than this ahead of its first response is relayed.
const MaxPassData = 64 << 10

// passPrefix begins every pass address.
const passPrefix = "@lard-handoff/"

// doneLen is the done record's length: magic and a uint64.
const doneLen = len(magic) + 8

// idleLen is the length of a pass message's idle bound.
const idleLen = 8

var (
	errPassUnsupported = errors.New("handoff: no descriptor passing on this system")
	errPassTooLong     = errors.New("handoff: pass message exceeds MaxPassData")
	errBadDone         = errors.New("handoff: malformed done record")
)

// PassChannel is a front end's end of a channel to a Listener's pass
// address (DialPass). It carries one passed connection at a time: Pass
// sends it, and Done waits until the back end has closed it. It is not safe
// for concurrent use.
type PassChannel struct {
	uc  *net.UnixConn
	buf []byte // the pass message's scratch
}

// Done waits for the done record of the connection passed last: the back
// end has closed it, and written that many bytes to the client. An error
// means the channel is gone, with its Listener or by its rejection of the
// message; close it.
func (p *PassChannel) Done() (written int64, err error) {
	var rec [doneLen + 1]byte // a byte more: a longer record is no record
	n, err := p.uc.Read(rec[:])
	switch {
	case err != nil:
		return 0, err
	case n != doneLen || string(rec[:len(magic)]) != magic:
		return 0, errBadDone
	}
	return int64(binary.BigEndian.Uint64(rec[len(magic):doneLen])), nil
}

// Close closes the channel.
func (p *PassChannel) Close() error { return p.uc.Close() }

// appendDone appends the done record for a connection the server wrote
// written bytes to.
func appendDone(b []byte, written int64) []byte {
	return binary.BigEndian.AppendUint64(append(b, magic...), uint64(written))
}
