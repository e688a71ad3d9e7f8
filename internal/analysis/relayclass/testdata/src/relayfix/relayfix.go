// Package relayfix is the relayclass fixture: consumers of
// internal/httprelay's head readers writing 400 responses with and
// without classifying the error first.
package relayfix

import (
	"bufio"
	"errors"
	"fmt"
	"net"

	"lard/internal/httprelay"
)

// serveBad answers every head-read error with a 400 — including
// io.EOF on a cleanly closed keep-alive connection. This is the bug
// class the analyzer exists for.
func serveBad(c net.Conn, br *bufio.Reader) {
	_, err := httprelay.ReadRequestHeadInto(br, 1<<14, nil)
	if err != nil {
		fmt.Fprintf(c, "HTTP/1.1 400 Bad Request\r\n\r\n") // want `head-read error reaches a 400 response without being classified`
		return
	}
}

// serveBadViaWriter launders the 400 through a local helper; still
// unclassified.
func serveBadViaWriter(c net.Conn, br *bufio.Reader) {
	_, err := httprelay.ReadRequestHeadInto(br, 1<<14, nil)
	if err != nil {
		writeBadRequest(c) // want `head-read error reaches a 400 response without being classified`
		return
	}
}

// serveGood classifies inline with errors.As before writing the 400.
func serveGood(c net.Conn, br *bufio.Reader) {
	_, err := httprelay.ReadRequestHeadInto(br, 1<<14, nil)
	if err != nil {
		var malformed *httprelay.MalformedError
		if errors.As(err, &malformed) {
			writeBadRequest(c)
		}
		return
	}
}

// serveViaClassifier hands the error to the canonical classifier, the
// way internal/frontend's relay loop uses headReadFailed.
func serveViaClassifier(c net.Conn, br *bufio.Reader) {
	_, err := httprelay.ReadRequestHeadInto(br, 1<<14, nil)
	if err != nil {
		headReadFailed(c, err)
		return
	}
}

// serveSwitch classifies with a type switch instead of errors.As.
func serveSwitch(c net.Conn, br *bufio.Reader) {
	_, err := httprelay.ReadResponseHead(br, 1<<14)
	if err != nil {
		switch err.(type) {
		case *httprelay.MalformedError:
			writeBadRequest(c)
		}
		return
	}
}

// serveAllowed documents a deliberate exception.
func serveAllowed(c net.Conn, br *bufio.Reader) {
	_, err := httprelay.ReadRequestHeadInto(br, 1<<14, nil)
	if err != nil {
		writeBadRequest(c) //lard:allow relayclass — fixture: deliberate blanket 400
		return
	}
}

// headReadFailed mimics internal/frontend's classifier: only malformed
// heads earn a 400; transport errors stay silent.
func headReadFailed(c net.Conn, err error) {
	var malformed *httprelay.MalformedError
	if errors.As(err, &malformed) {
		writeBadRequest(c)
	}
}

// writeBadRequest is a plain 400 writer: calling it is only legitimate
// after classification.
func writeBadRequest(c net.Conn) {
	fmt.Fprintf(c, "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
}

// serveBadInto is the relay loop's own read, into the connection's
// scratch: the same contract, the same bug.
func serveBadInto(c net.Conn, br *bufio.Reader) {
	var head httprelay.RequestHead
	var err error
	head, err = httprelay.ReadRequestHeadInto(br, 1<<14, head.Raw)
	if err != nil {
		writeBadRequest(c) // want `head-read error reaches a 400 response without being classified`
		return
	}
}
