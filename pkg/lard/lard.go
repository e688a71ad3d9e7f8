// Package lard is the public, concurrency-safe dispatch layer over the
// paper's request-distribution strategies (internal/core).
//
// The paper's policies — WRR, LB, LB/GC, LARD, LARD/R — and the
// capacity-aware addition WLARD are deterministic single-threaded state
// machines; its front end is "a single dispatch point". This package keeps internal/core exactly that pure policy layer
// and adds the machinery a live system needs around it:
//
//   - one closed set of six strategies built by name, New(name,
//     opts...), so the simulator, the prototype front end, and the tools
//     all select policies by the names used in the paper's figures
//     ("wrr", "lard/r", ...);
//   - a Dispatcher that owns the load accounting the paper's front end
//     keeps ("a node's load is measured as the number of active
//     connections"): Dispatch claims a connection slot on the chosen node
//     and returns a done func that releases it;
//   - the paper's admission control: at most S = (n−1)·T_high + T_low + 1
//     connections are outstanding per strategy instance (Section 3.2);
//     Dispatch returns ErrOverloaded beyond that;
//   - optional sharding (WithShards) that hash-partitions the target
//     space across independent strategy instances, each behind its own
//     lock with its own admission budget, so dispatch does not serialize
//     on one mutex;
//   - runtime cluster membership: AddNode, RemoveNode, Drain, and Undrain
//     change the node set while traffic flows, recomputing S on every
//     change, with NodeStates exposing the per-node membership and health
//     flags (node indices are stable and never reused);
//   - sessions for persistent connections: NewSession returns a Session
//     that owns the per-connection pin/re-handoff decision through a
//     pluggable ConnPolicy — Pin, PerRequest, or the locality-aware
//     CostAware — and keeps connection-slot accounting exact as the
//     session moves between nodes and shards.
//
// A minimal use:
//
//	d, err := lard.New("lard/r", lard.WithNodes(8))
//	...
//	node, done, err := d.Dispatch(time.Since(start), lard.Request{Target: "/a.html"})
//	if err != nil { /* reject: cluster saturated or no node alive */ }
//	defer done() // release the connection slot when the request completes
package lard

import (
	"errors"
	"time"

	"lard/internal/core"
)

// Request is the per-request information visible to the dispatcher: the
// target name (URL plus arguments, per the paper's definition) and, when
// known, its size.
type Request = core.Request

// Params holds the LARD tuning parameters (paper Section 2.4).
type Params = core.Params

// Profile is one node's capacity profile for heterogeneous fleets: its
// own T_low/T_high thresholds plus a relative-capacity Weight consulted
// by the capacity-aware strategies (wrr, wlard).
type Profile = core.Profile

// Strategy is the pure policy interface every built-in implements: it
// picks a node per request, keeps the node set's failure, drain, removal
// and profile flags, and never locks — the Dispatcher serializes around
// it. Inspect hands each shard's instance to its callback.
type Strategy = core.Strategy

// LoadReader exposes a shard's active-connection table to its strategy
// (and to Inspect callbacks).
type LoadReader = core.LoadReader

// DefaultParams returns the paper's recommended settings: T_low = 25,
// T_high = 65 active connections, K = 20 s.
func DefaultParams() Params { return core.DefaultParams() }

// DefaultProfile returns the capacity profile of a standard node under
// the paper's defaults: T_low = 25, T_high = 65, Weight = 1.
func DefaultProfile() Profile { return core.DefaultProfile() }

var (
	// ErrOverloaded is returned by Dispatch when the admission budget is
	// exhausted: admitting the request would exceed the shard's bound on
	// outstanding connections. The caller should reject or queue.
	ErrOverloaded = errors.New("lard: admission budget exhausted")

	// ErrUnavailable is returned by Dispatch when no back-end node is
	// available (total outage: every node is marked down).
	ErrUnavailable = errors.New("lard: no back-end node available")
)

// NodeGate is an external per-node admission veto (see
// Dispatcher.SetNodeGate): it reports whether node may receive new
// traffic right now. Implementations must be concurrency-safe, fast,
// and must never call back into the dispatcher.
type NodeGate func(node int) bool

// Dispatcher selects a back-end node for each request and accounts for the
// connection slots in flight. Implementations are safe for concurrent use
// by any number of goroutines.
//
// Dispatchers are built by New: Session's slot accounting reaches into
// the shard internals, so the interface is not intended to be
// implemented outside this package.
type Dispatcher interface {
	// Dispatch picks the node that should serve r at the given (virtual or
	// wall-clock) time, claims a connection slot on it, and returns a done
	// func that releases the slot when the request completes. done is
	// idempotent: calling it more than once releases the slot once.
	//
	// Dispatch is the one-shot sugar over the session API: it behaves
	// exactly like a fresh single-request NewSession(PerRequest())
	// session, without the session allocation.
	//
	// On error the node is -1 and done is nil: ErrOverloaded when the
	// admission budget is exhausted, ErrUnavailable when every node is
	// down.
	Dispatch(now time.Duration, r Request) (node int, done func(), err error)

	// NewSession opens a session: the dispatch state of one client
	// connection carrying potentially many requests. The policy decides,
	// per request, whether the connection stays on its current back end
	// or pays a re-handoff to regain locality (nil defaults to
	// PerRequest). Sessions own the connection-slot accounting across
	// moves, including across shards; see Session.
	NewSession(policy ConnPolicy) *Session

	// NodeCount returns the number of back-end node indices ever created
	// (alive, down, draining, or removed). Indices are stable and never
	// reused, so NodeCount only grows.
	NodeCount() int

	// AddNode grows the cluster by one node on every shard and returns
	// the new node's index (always the previous NodeCount). The admission
	// bound S = (n−1)·T_high + T_low + 1 is recomputed from the new
	// eligible-node count.
	AddNode() int

	// RemoveNode permanently retires a node: no new assignments, and each
	// strategy invalidates its state for the node exactly like a Section
	// 2.6 failure that never recovers. In-flight slots on the node drain
	// normally through their done funcs. S is recomputed. Removing an
	// unknown or already-removed node is a no-op.
	RemoveNode(node int)

	// Drain stops new assignments to a node while its in-flight slots
	// finish; Loads()[node] reaching zero signals the drain is complete.
	// S is recomputed as if the node had left. Draining a removed node is
	// a no-op.
	Drain(node int)

	// Undrain restores a draining node to service and recomputes S.
	Undrain(node int)

	// NodeStates returns a snapshot of every node's membership and health
	// flags, indexed by node.
	NodeStates() []NodeState

	// SetProfile retunes a node's capacity profile at runtime: the
	// admission bound is recomputed from the new fleet shape, profile-
	// aware strategies pick up the node's thresholds and weight, and the
	// session claim ceiling (2× the node's T_high) moves with it. Zero
	// profile fields fill like WithProfiles. Retuning an unknown or
	// removed node is an error.
	SetProfile(node int, p Profile) error

	// Profiles returns a snapshot of every node's resolved capacity
	// profile, indexed by node id alongside NodeStates.
	Profiles() []Profile

	// NodeEligible reports whether node may currently receive new
	// assignments (member, not draining, not down) — the single-node,
	// allocation-free form of NodeStates for hot paths that gate on one
	// node's health, like the front end's pool check-in.
	NodeEligible(node int) bool

	// Shards returns the number of independent strategy instances the
	// target space is partitioned over (1 unless built WithShards).
	Shards() int

	// Name returns the registry name the dispatcher was built from.
	Name() string

	// Loads returns a snapshot of active connections per node, summed
	// across shards. Shards are snapshotted one at a time, so under
	// concurrent dispatch the snapshot is approximate (each shard's
	// contribution is internally consistent).
	Loads() []int

	// InFlight returns the total number of claimed, unreleased connection
	// slots across all shards.
	InFlight() int

	// SetNodeDown marks a node failed (down=true) or restored, on every
	// shard: the paper's Section 2.6 failure and recovery.
	SetNodeDown(node int, down bool)

	// SetNodeGate installs (or, with nil, removes) an external per-node
	// admission gate consulted on every eligibility decision: dispatch's
	// post-Select check, Session stay-or-move checks, Redispatch
	// fallback search, and NodeEligible. A gated-out node behaves like a
	// down node for new traffic — no new slots, sessions move off it,
	// pooled connections to it are rejected at check-in — but the
	// strategy's target→node mapping is untouched, so traffic returns
	// the moment the gate re-admits the node. The front end uses this to
	// layer circuit breakers under the mark-down machinery.
	//
	// gate is called with shard or membership locks held and on hot
	// paths: it must be fast, must not block, and must not call back
	// into the dispatcher.
	SetNodeGate(gate NodeGate)

	// Inspect calls f for each shard with the shard's strategy instance
	// and its load view, holding that shard's lock for the duration of the
	// call. It is intended for diagnostics and tests; f must not call back
	// into the dispatcher.
	Inspect(f func(shard int, s Strategy, loads LoadReader))
}
