package httprelay

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
)

// relayChunked forwards one chunked message body — every chunk, the
// terminating zero chunk, and any trailer section — from br to dst,
// preserving the sender's framing byte for byte. Parsing the chunk sizes
// is what lets the relay know where the body ends, so a chunked response
// no longer downgrades the connection to copy-until-close. It returns
// the number of body bytes forwarded (framing included).
func relayChunked(dst io.Writer, br *bufio.Reader) (int64, error) {
	var total int64
	write := func(p []byte) error {
		n, err := dst.Write(p)
		total += int64(n)
		return err
	}
	for {
		line, err := readLine(br, maxLineBytes)
		if err != nil {
			return total, chunkErr(err, "reading chunk size")
		}
		size, err := parseChunkSize(trimCRLF(line))
		if err != nil {
			return total, err
		}
		if err := write(line); err != nil {
			return total, err
		}
		if size == 0 {
			break
		}
		n, err := copyNBuffered(dst, br, size)
		total += n
		if err != nil {
			return total, chunkErr(err, "copying chunk data")
		}
		// Each chunk's data is followed by its own CRLF.
		term, err := readLine(br, maxLineBytes)
		if err != nil {
			return total, chunkErr(err, "reading chunk terminator")
		}
		if len(trimCRLF(term)) != 0 {
			return total, malformedf("chunk data not followed by CRLF")
		}
		if err := write(term); err != nil {
			return total, err
		}
	}
	// Trailer section: zero or more header lines, then a blank line.
	for {
		line, err := readLine(br, maxLineBytes)
		if err != nil {
			return total, chunkErr(err, "reading chunk trailers")
		}
		if err := write(line); err != nil {
			return total, err
		}
		if len(trimCRLF(line)) == 0 {
			return total, nil
		}
	}
}

// parseChunkSize parses a chunk-size line: hex digits optionally followed
// by ";ext" chunk extensions, which are ignored.
func parseChunkSize(line []byte) (int64, error) {
	if i := bytes.IndexByte(line, ';'); i >= 0 {
		line = trimOWS(line[:i])
	}
	if len(line) == 0 {
		return 0, malformedf("empty chunk size")
	}
	n, err := strconv.ParseUint(string(line), 16, 63)
	if err != nil {
		return 0, malformedf("invalid chunk size %q", line)
	}
	return int64(n), nil
}

// chunkErr wraps transport errors inside chunked framing; malformed
// errors pass through untouched.
func chunkErr(err error, doing string) error {
	if _, ok := err.(*MalformedError); ok {
		return err
	}
	return malformedf("%s: %v", doing, err)
}
