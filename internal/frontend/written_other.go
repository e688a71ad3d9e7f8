//go:build !linux

package frontend

import "syscall"

// socketWritten has no count to read here, where no session is split: it
// never vouches that a client was sent nothing.
func socketWritten(syscall.RawConn) (int64, bool) { return 0, false }
