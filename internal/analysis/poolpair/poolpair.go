// Package poolpair proves the exactly-once release contract of the
// relay stack's paired resources:
//
//   - pooled readers:      httprelay.GetReader → httprelay.PutReader
//   - pooled transports:   backendPool.get     → backendPool.put
//     (or backendConn.close, which closes the conn and recycles the
//     reader it travels with)
//   - fresh transports:    newBackendConn      → the same two
//   - dialed transports:   dialBackend         → Close
//
// PR 7 made the hot path allocation-free by pooling these resources;
// a path that forgets the release quietly reintroduces the per-request
// allocation (and, for conns, leaks a file descriptor), while a double
// release poisons the pool with a reader two goroutines share. The
// analyzer is a table for the obligation engine (flow.Table), which
// says what is reported and how calls into helpers are judged: a helper
// that always releases its parameter discharges the caller's
// obligation, one that only reads it (httprelay's relay functions, any
// method on the resource except Close) leaves the obligation with the
// caller, and one that stores it adopts it.
//
// Escape hatch: //lard:allow poolpair — reason, on or above the line.
package poolpair

import (
	"lard/internal/analysis"
	"lard/internal/analysis/flow"
)

// Analyzer is the poolpair pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolpair",
	Doc:  "check that pooled readers, pooled transports, and dialed conns are released exactly once on every path",
	Run:  Table.Run,
}

const transportRelease = "pool.put (or its close)"

// Table is the analyzer's rows; lardlint's tests hold each to a live
// function with call sites in the tree.
var Table = &flow.Table{
	Acquires: []flow.Acquire{
		{Pkg: "internal/httprelay", Name: "GetReader", What: "pooled reader", Release: "httprelay.PutReader"},
		{Recv: "backendPool", Name: "get", What: "pooled transport", Release: transportRelease},
		// A dialed conn is adopted at birth by the backendConn wrapped
		// around it, which then owes the close (and its reader).
		{Name: "newBackendConn", What: "fresh transport", Release: transportRelease},
		{Name: "dialBackend", What: "dialed conn", Release: "Close"},
	},
	Releases: []flow.Release{
		{Pkg: "internal/httprelay", Name: "PutReader", Arg: 0},
		{Recv: "backendPool", Name: "put", Arg: 0},
		{Recv: "backendConn", Name: "close", Arg: -1},
		{Name: "Close", Arg: -1},
	},
	Borrows: []flow.Borrow{
		// httprelay's head readers and relay functions read through a
		// caller-owned reader and never retain it; GetReader/PutReader,
		// its only ownership-moving entry points, are rows above.
		{Pkg: "internal/httprelay"},
	},
	Words: flow.Wording{
		Discarded:   "{what} from {call} is discarded{how}: it is never released (release with {release})",
		Overwritten: "{what} {var} (line {line}) is overwritten before being released: it leaks",
		Double:      "{what} {var} (line {line}) may already have been released on this path",
		Never:       "{what} {var} (line {line}) is released on a path where it was never acquired",
		Leaked:      "{what} {var} (line {line}) is not released on this path: release with {release}",
	},
}
