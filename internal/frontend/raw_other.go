//go:build !linux

package frontend

import "io"

// clientReader reads a client's requests through the connection itself:
// raw calls are Linux's alone (raw_linux.go).
type clientReader struct{}

func (*clientReader) open(cc *clientConn) io.Reader { return cc.Conn }

func (*clientReader) close() {}
