//go:build !unix

package frontend

// peekFunc has no socket-level peek to offer here: the checkout probe
// falls back to the deadline peek.
func peekFunc(*backendConn) func(fd uintptr) bool { return nil }
