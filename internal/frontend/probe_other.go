//go:build !unix

package frontend

// probeFunc has no descriptor-level probe to offer here: the checkout
// probe falls back to the deadline peek.
func probeFunc(*backendConn) func(fd uintptr) bool { return nil }
