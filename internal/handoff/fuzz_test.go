package handoff

// Fuzz targets for the handoff wire format: the handshake header parser,
// the session-framed stream decoder and the done record (fuzz_linux_test.go
// adds the descriptors a pass transport carries). All sit on a pooled transport
// that carries many sessions back to back, so the invariants are about
// exact consumption — a parser that reads one byte too many or too few
// desyncs every later session on the connection — and about error
// classes: truncation must surface as io.ErrUnexpectedEOF (the relay
// tears the transport down), never as a clean io.EOF (the relay would
// pool the connection and hand the desynced stream to the next session).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"lard/internal/httprelay"
)

// fuzzConn is a net.Conn stub whose write side collects bytes;
// sessionConn only uses the raw conn for writes, deadlines, and
// addresses, so nothing else needs to work.
type fuzzConn struct{ bytes.Buffer }

func (*fuzzConn) Close() error                       { return nil }
func (*fuzzConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (*fuzzConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (*fuzzConn) SetDeadline(t time.Time) error      { return nil }
func (*fuzzConn) SetReadDeadline(t time.Time) error  { return nil }
func (*fuzzConn) SetWriteDeadline(t time.Time) error { return nil }

// FuzzHeaderDecode checks ReadHeader's error contract, the
// decode/encode identity that keeps a pooled transport in sync, and that
// ReadHeader agrees with the parser the Listener runs: readHeaderFields
// over a bufio.Reader fed in short reads (what Listener.readHead calls),
// followed by the initial data the session reads out of the same reader.
// Both must reject with ErrBadHandshake, or both accept with the same
// flags, client address, initial-data length and bytes consumed.
func FuzzHeaderDecode(f *testing.F) {
	for _, h := range []Header{
		{},
		{Flags: FlagRehandoff, ClientAddr: "192.0.2.7:4242"},
		{Flags: FlagSessionFramed, ClientAddr: "[2001:db8::1]:80", InitialData: []byte("GET / HTTP/1.1\r\nHost: a\r\n\r\n")},
		{ClientAddr: "not an address"},
	} {
		var b bytes.Buffer
		if err := WriteHeader(&b, h); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte("DRAL\x01\x00\x00\x00\x00\x00\x00\x00"))   // bad magic
	f.Add([]byte("LARD\x09\x00\x00\x00\x00\x00\x00\x00"))   // bad version
	f.Add([]byte("LARD\x01\x00\xff\xff"))                   // oversized addr
	f.Add([]byte("LARD\x01\x00\x00\x00\xff\xff\xff\xff"))   // oversized data
	f.Add([]byte("LARD\x01\x00\x00\x04ab"))                 // truncated addr
	f.Add([]byte("LARD\x01\x00\x00\x00\x00\x00\x00\x05ab")) // truncated initial data
	f.Add([]byte{})                                         //
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		h, err := ReadHeader(r)
		consumed := len(data) - r.Len()

		lr := bytes.NewReader(data)
		br := bufio.NewReaderSize(iotest.OneByteReader(lr), httprelay.ReaderSize)
		flags, client, dataLen, lerr := readHeaderFields(br)
		if lerr == nil {
			if _, derr := br.Discard(dataLen); derr != nil {
				// The session's read of the initial data fails: this
				// transport ends as surely as on a bad header.
				lerr = fmt.Errorf("%w: truncated initial data: %v", ErrBadHandshake, derr)
			}
		}
		lconsumed := len(data) - lr.Len() - br.Buffered()

		if (err == nil) != (lerr == nil) {
			t.Fatalf("ReadHeader err = %v, Listener's parse err = %v", err, lerr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadHandshake) || !errors.Is(lerr, ErrBadHandshake) {
				t.Fatalf("errors do not wrap ErrBadHandshake: ReadHeader %v, Listener's parse %v", err, lerr)
			}
			return
		}
		if flags != h.Flags || dataLen != len(h.InitialData) || lconsumed != consumed ||
			!reflect.DeepEqual(client, parseClientAddr(h.ClientAddr)) {
			t.Fatalf("parsers disagree: ReadHeader flags=%#x addr=%q data=%d consumed=%d; Listener's flags=%#x addr=%v data=%d consumed=%d",
				h.Flags, h.ClientAddr, len(h.InitialData), consumed, flags, client, dataLen, lconsumed)
		}
		if len(h.ClientAddr) > MaxAddrLen || len(h.InitialData) > MaxInitialData {
			t.Fatalf("decoded header exceeds bounds: addr=%d data=%d", len(h.ClientAddr), len(h.InitialData))
		}
		// The encoding has no redundancy, so re-encoding the decoded
		// header must reproduce the consumed prefix exactly: the reader
		// is positioned on the first byte of the session stream.
		var reenc bytes.Buffer
		if err := WriteHeader(&reenc, h); err != nil {
			t.Fatalf("re-encoding decoded header: %v", err)
		}
		if !bytes.Equal(reenc.Bytes(), data[:consumed]) {
			t.Fatalf("re-encode != consumed prefix:\nre-encoded: %q\nconsumed:   %q", reenc.Bytes(), data[:consumed])
		}
	})
}

// refDecodeFrames is an independent reference decoder for the framed
// stream, used as a differential oracle against sessionConn's
// incremental state machine. It returns the concatenated payload, how
// many bytes of stream it consumed, and the terminal error class.
func refDecodeFrames(stream []byte) (payload []byte, consumed int, err error) {
	r := bytes.NewReader(stream)
	for {
		var lenBuf [4]byte
		if _, e := io.ReadFull(r, lenBuf[:]); e != nil {
			return payload, len(stream) - r.Len(), io.ErrUnexpectedEOF
		}
		size := int(binary.BigEndian.Uint32(lenBuf[:]))
		if size == 0 {
			return payload, len(stream) - r.Len(), io.EOF
		}
		if size > MaxFrameLen {
			return payload, len(stream) - r.Len(), errors.New("frame length exceeds bound")
		}
		// sessionConn streams frame data as it arrives (the relay wants
		// bytes moving before the frame completes), so a truncated frame
		// still delivers its partial payload before the error.
		buf := make([]byte, size)
		n, e := io.ReadFull(r, buf)
		payload = append(payload, buf[:n]...)
		if e != nil {
			return payload, len(stream) - r.Len(), io.ErrUnexpectedEOF
		}
	}
}

// FuzzSessionFrames drives sessionConn over arbitrary wire bytes and
// checks it against the reference decoder, then round-trips the same
// bytes as payload through SessionWriter.
func FuzzSessionFrames(f *testing.F) {
	f.Add([]byte(nil), []byte("\x00\x00\x00\x00"))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"), []byte("\x00\x00\x00\x05hello\x00\x00\x00\x00"))
	f.Add([]byte("head"), []byte("\x00\x00\x00\x05hel"))
	f.Add([]byte(nil), []byte("\xff\xff\xff\xff"))
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte("x"), []byte("\x00\x00"))
	f.Fuzz(func(t *testing.T, initial, stream []byte) {
		// Part 1: arbitrary bytes as the framed stream, read through a
		// deliberately tiny buffer to stress the resumable frame state.
		// The initial data lies in the transport's reader, ahead of the
		// stream, as it does after the listener has parsed a header.
		under := bytes.NewReader(want2(initial, stream))
		br := bufio.NewReader(under)
		sc := newSessionConn(&fuzzConn{}, br, parseClientAddr("192.0.2.9:1"), len(initial), nil)
		var got bytes.Buffer
		var ferr error
		buf := make([]byte, 3)
		for i := 0; i <= len(initial)+len(stream)+8; i++ {
			n, err := sc.Read(buf)
			got.Write(buf[:n])
			if err != nil {
				ferr = err
				break
			}
		}
		if ferr == nil {
			t.Fatalf("sessionConn.Read never terminated over %d wire bytes", len(stream))
		}
		refPayload, refConsumed, refErr := refDecodeFrames(stream)
		want := append(append([]byte{}, initial...), refPayload...)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("payload disagrees with reference decoder:\ngot:  %q\nwant: %q", got.Bytes(), want)
		}
		switch {
		case refErr == io.EOF:
			if ferr != io.EOF {
				t.Fatalf("reference saw clean end of session, sessionConn returned %v", ferr)
			}
			if !sc.drained() {
				t.Fatal("io.EOF but drained() is false")
			}
			// The reader must stop exactly after the end record; the next
			// session's header follows on the shared transport.
			if consumed := len(stream) - br.Buffered() - under.Len(); consumed != refConsumed {
				t.Fatalf("consumed %d bytes of stream, reference consumed %d", consumed, refConsumed)
			}
		case refErr == io.ErrUnexpectedEOF:
			if ferr != io.ErrUnexpectedEOF {
				t.Fatalf("truncated stream: want io.ErrUnexpectedEOF, got %v", ferr)
			}
			if sc.drained() {
				t.Fatal("truncated stream but drained() is true")
			}
		default: // oversized frame
			if ferr == io.EOF || ferr == io.ErrUnexpectedEOF {
				t.Fatalf("oversized frame surfaced as %v", ferr)
			}
			if sc.drained() {
				t.Fatal("oversized frame but drained() is true")
			}
		}
		// The terminal condition is sticky: another read must fail the
		// same way, never hand out data.
		if n, err := sc.Read(buf); n != 0 || err == nil || (ferr == io.EOF) != (err == io.EOF) {
			t.Fatalf("read after terminal error returned (%d, %v), first error was %v", n, err, ferr)
		}

		// Part 2: round-trip — frame the fuzz input as payload with
		// SessionWriter, decode it with sessionConn, and confirm the
		// transport is left positioned on the next session's bytes.
		var wire fuzzConn
		w := NewSessionWriter(&wire)
		half := len(stream) / 2
		if _, err := w.Write(stream[:half]); err != nil {
			t.Fatalf("SessionWriter.Write: %v", err)
		}
		if _, err := w.Write(stream[half:]); err != nil {
			t.Fatalf("SessionWriter.Write: %v", err)
		}
		if err := w.End(); err != nil {
			t.Fatalf("SessionWriter.End: %v", err)
		}
		next := "LARDnext-session"
		br2 := bufio.NewReader(io.MultiReader(bytes.NewReader(initial), bytes.NewReader(wire.Bytes()), strings.NewReader(next)))
		sc2 := newSessionConn(&fuzzConn{}, br2, nil, len(initial), nil)
		echoed, err := io.ReadAll(sc2)
		if err != nil {
			t.Fatalf("reading back framed payload: %v", err)
		}
		if !bytes.Equal(echoed, want2(initial, stream)) {
			t.Fatalf("round-trip payload mismatch:\ngot:  %q\nwant: %q", echoed, want2(initial, stream))
		}
		if !sc2.drained() {
			t.Fatal("round-trip stream not drained after io.EOF")
		}
		rest, err := io.ReadAll(br2)
		if err != nil {
			t.Fatalf("reading trailing bytes: %v", err)
		}
		if string(rest) != next {
			t.Fatalf("transport desynced after session: trailing bytes %q, want %q", rest, next)
		}

		// Part 3: the owed end-of-session record rides with the next
		// header. One session's frames, then End + header + initial data
		// as Handoff writes them, delivered in one segment and split in
		// two at every byte boundary (every 7th on a long input): the
		// first session must end cleanly, the header must parse, and the
		// second session must read exactly its initial data.
		if len(initial) > MaxInitialData {
			return
		}
		wire.Reset()
		if _, err := w.Write(stream); err == nil {
			t.Fatal("SessionWriter.Write after End succeeded")
		}
		w = NewSessionWriter(&wire)
		if _, err := w.Write(stream); err != nil {
			t.Fatalf("SessionWriter.Write: %v", err)
		}
		const nextClient = "198.51.100.7:81"
		if err := w.Handoff(nextClient, initial, FlagRehandoff); err != nil {
			t.Fatalf("SessionWriter.Handoff: %v", err)
		}
		if err := w.End(); err != nil {
			t.Fatalf("SessionWriter.End: %v", err)
		}
		segment := wire.Bytes()
		step := 1 + len(segment)/512*7
		for cut := 0; cut <= len(segment); cut += step {
			br3 := bufio.NewReader(io.MultiReader(bytes.NewReader(segment[:cut]), bytes.NewReader(segment[cut:])))
			first := newSessionConn(&fuzzConn{}, br3, nil, 0, nil)
			if got, err := io.ReadAll(first); err != nil || !bytes.Equal(got, stream) || !first.drained() {
				t.Fatalf("cut %d: first session read %q, %v (drained %t), want %q", cut, got, err, first.drained(), stream)
			}
			flags, client, n, err := readHeaderFields(br3)
			if err != nil || flags != FlagRehandoff|FlagSessionFramed || client.String() != nextClient || n != len(initial) {
				t.Fatalf("cut %d: next header = flags %#x, client %v, %d initial bytes, %v", cut, flags, client, n, err)
			}
			second := newSessionConn(&fuzzConn{}, br3, client, n, nil)
			if got, err := io.ReadAll(second); err != nil || !bytes.Equal(got, initial) || !second.drained() {
				t.Fatalf("cut %d: second session read %q, %v (drained %t), want %q", cut, got, err, second.drained(), initial)
			}
		}
	})
}

// FuzzDoneRecord checks the front end's read of what a split session's
// transport carries in a response's place: a done record is consumed
// exactly and re-encodes to the bytes it was read from, anything else that
// does not start with the magic is left unconsumed for the relay, and a
// record that does not parse is an error that consumes nothing.
func FuzzDoneRecord(f *testing.F) {
	f.Add(appendDone(nil, Done{Written: 8192, Responses: 1, Open: true}))
	f.Add(appendDone(nil, Done{Written: 1 << 40, Responses: 7}))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"))
	f.Add([]byte("LARD\x00\x00"))
	f.Add(append(appendDone(nil, Done{}), "HTTP/1.1 "...))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(iotest.OneByteReader(bytes.NewReader(data)))
		d, ok, err := ReadDone(br)
		rest, _ := io.ReadAll(br)
		consumed := len(data) - len(rest)
		switch {
		case ok:
			if err != nil || consumed != doneLen || d.Written < 0 {
				t.Fatalf("a done record %+v: consumed %d, %v", d, consumed, err)
			}
			if !bytes.Equal(appendDone(nil, d), data[:doneLen]) {
				t.Fatalf("%+v re-encodes to %q, read from %q", d, appendDone(nil, d), data[:doneLen])
			}
		case err == nil:
			if bytes.HasPrefix(data, []byte(magic)) || consumed != 0 {
				t.Fatalf("no done record in %q, yet %d bytes consumed", data, consumed)
			}
		default:
			if consumed != 0 {
				t.Fatalf("%v, yet %d bytes consumed", err, consumed)
			}
			if err != errBadDone && len(data) >= doneLen {
				t.Fatalf("%v from a whole record's bytes %q", err, data)
			}
		}
	})
}

// want2 is the expected round-trip payload: initial data then the framed
// stream bytes.
func want2(initial, stream []byte) []byte {
	return append(append([]byte{}, initial...), stream...)
}
