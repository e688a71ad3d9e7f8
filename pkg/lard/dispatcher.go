package lard

import (
	"time"

	"lard/internal/core"
)

// dispatcher is the one Dispatcher implementation: the target space
// hash-partitioned over N independent strategy instances, each behind its
// own lock with its own admission budget. N = 1 (the default) is the
// paper's single dispatch point made safe for concurrent callers, and
// skips the target hash.
//
// Partitioning by target preserves what matters for locality: a given
// target is always dispatched by the same shard, so that shard's mapping
// is the only one that ever sees it and LARD's target→node assignment
// stays stable. What N > 1 changes is the load view: each shard only sees
// the connections it admitted itself, so balancing decisions are taken on
// a 1/N sample of the true load and the cluster-wide admission bound
// becomes S_paper per shard rather than global — strictly weaker
// accounting, traded for dispatch that does not serialize on one mutex.
type dispatcher struct {
	name   string
	mem    *membership
	shards []*lockedShard
}

// New builds a concurrency-safe Dispatcher running the named strategy.
// WithNodes is required; every other option has a paper-faithful default.
// With WithShards(s > 1) the target space is hash-partitioned over s
// independent strategy instances, each behind its own lock with its own
// admission budget; the default single instance preserves the paper's
// exact single-dispatch-point semantics.
func New(name string, opts ...Option) (Dispatcher, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	o.applyDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	build, name, err := lookup(name)
	if err != nil {
		return nil, err
	}
	shards := make([]*lockedShard, o.Shards)
	for i := range shards {
		shards[i] = newLockedShard(build, o)
	}
	return &dispatcher{name: name, mem: newMembership(o), shards: shards}, nil
}

// MustNew is New, panicking on error; for examples and tests.
func MustNew(name string, opts ...Option) Dispatcher {
	d, err := New(name, opts...)
	if err != nil {
		panic(err)
	}
	return d
}

// shardSeed salts the shard pick so it is decorrelated from the hash the
// lb strategy applies to the same target names.
var shardSeed = core.HashSeed(0x73)

// shardFor returns the shard that owns target: where its strategy state
// lives and where a slot for a request to it is accounted.
func (d *dispatcher) shardFor(target string) *lockedShard {
	if len(d.shards) == 1 {
		return d.shards[0]
	}
	return d.shards[core.HashTarget(shardSeed, target)%uint64(len(d.shards))]
}

func (d *dispatcher) Dispatch(now time.Duration, r Request) (int, func(), error) {
	return d.shardFor(r.Target).dispatch(now, r)
}

func (d *dispatcher) NewSession(p ConnPolicy) *Session { return newSession(d, p) }

func (d *dispatcher) NodeCount() int { return d.mem.nodeCount() }
func (d *dispatcher) Shards() int    { return len(d.shards) }
func (d *dispatcher) Name() string   { return d.name }

func (d *dispatcher) Loads() []int {
	total := make([]int, d.NodeCount())
	for _, sh := range d.shards {
		active, _ := sh.snapshot()
		for i, a := range active {
			// A concurrent AddNode may have reached a shard after the
			// NodeCount read above; grow rather than panic.
			if i >= len(total) {
				total = append(total, 0)
			}
			total[i] += a
		}
	}
	return total
}

func (d *dispatcher) InFlight() int {
	n := 0
	for _, sh := range d.shards {
		_, f := sh.snapshot()
		n += f
	}
	return n
}

func (d *dispatcher) SetNodeDown(node int, down bool) {
	d.mem.setNodeDown(node, down, d.shards)
}

func (d *dispatcher) SetNodeGate(g NodeGate) { d.mem.setGate(g, d.shards) }

func (d *dispatcher) AddNode() int               { return d.mem.addNode(d.shards) }
func (d *dispatcher) RemoveNode(node int)        { d.mem.removeNode(node, d.shards) }
func (d *dispatcher) Drain(node int)             { d.mem.setDraining(node, true, d.shards) }
func (d *dispatcher) Undrain(node int)           { d.mem.setDraining(node, false, d.shards) }
func (d *dispatcher) NodeStates() []NodeState    { return d.mem.snapshot() }
func (d *dispatcher) NodeEligible(node int) bool { return d.mem.eligibleNode(node) }
func (d *dispatcher) Profiles() []Profile        { return d.mem.profilesSnapshot() }

func (d *dispatcher) SetProfile(node int, p Profile) error {
	return d.mem.setProfile(node, p, d.shards)
}

func (d *dispatcher) Inspect(f func(int, core.Strategy, core.LoadReader)) {
	for i, sh := range d.shards {
		sh.inspect(i, f)
	}
}

var _ Dispatcher = (*dispatcher)(nil)
