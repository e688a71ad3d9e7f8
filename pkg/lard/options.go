package lard

import (
	"fmt"

	"lard/internal/core"
)

// DefaultCacheBytes is the default per-node cache size assumed by
// cache-modelling strategies (lb/gc): the paper's 32 MB.
const DefaultCacheBytes = 32 << 20

// options collects the knobs a dispatcher (and the strategy constructors
// beneath it) can be built with, set through New's functional options;
// constructors receive the resolved value.
type options struct {
	// Nodes is the number of back-end nodes. Required, >= 1.
	Nodes int

	// Shards is the number of independent strategy instances the target
	// space is hash-partitioned over. 1 (the default) preserves the
	// paper's single-dispatch-point semantics exactly.
	Shards int

	// Params are the LARD tuning parameters (defaults to DefaultParams).
	// They also derive the admission budget when MaxOutstanding is 0.
	Params core.Params

	// CacheBytes is the per-node cache size assumed by cache-modelling
	// strategies such as lb/gc (defaults to DefaultCacheBytes).
	CacheBytes int64

	// MaxOutstanding is the per-shard admission budget. 0 derives the
	// paper's bound S = (n−1)·T_high + T_low + 1 from Params (its
	// heterogeneous generalization when Profiles are set); a negative
	// value disables admission control.
	MaxOutstanding int

	// Profiles are per-node capacity profiles for heterogeneous fleets,
	// indexed by node. It may be shorter than Nodes; unlisted nodes get
	// the uniform profile Params imply. Zero profile fields are filled
	// from Params scaled by the profile's Weight (see WithProfiles), so a
	// weight-only profile folds capacity into both thresholds and the
	// admission bound.
	Profiles []core.Profile
}

// Option configures New.
type Option func(*options)

// WithNodes sets the number of back-end nodes.
func WithNodes(n int) Option { return func(o *options) { o.Nodes = n } }

// WithShards partitions the target space over s independent strategy
// instances, each with its own lock and admission budget. The default, 1,
// is the paper's single dispatch point.
func WithShards(s int) Option { return func(o *options) { o.Shards = s } }

// WithParams sets the LARD tuning parameters. Zero fields fall back to
// the paper's defaults, so setting only MappingCapacity keeps
// T_low/T_high/K. (A literal K = 0 is therefore not expressible; the
// smallest replication timer is 1ns.)
func WithParams(p core.Params) Option { return func(o *options) { o.Params = p } }

// WithCacheBytes sets the per-node cache size assumed by cache-modelling
// strategies (lb/gc).
func WithCacheBytes(b int64) Option { return func(o *options) { o.CacheBytes = b } }

// WithMaxOutstanding overrides the per-shard admission budget: 0 derives
// the paper's S from the params, negative disables admission control.
func WithMaxOutstanding(n int) Option { return func(o *options) { o.MaxOutstanding = n } }

// WithProfiles declares a heterogeneous fleet: profiles[i] is node i's
// capacity profile. The slice may be shorter than Nodes; unlisted nodes
// run the uniform profile Params imply. Zero fields are filled from
// Params scaled by Weight — WithProfiles(Profile{Weight: 2}) gives a node
// double thresholds and double admission headroom without spelling them
// out. The admission bound becomes the generalized
// S = Σᵢ T_high,i − maxᵢ T_high,i + minᵢ T_low,i + 1, recomputed on every
// membership or profile change.
func WithProfiles(profiles ...core.Profile) Option {
	return func(o *options) { o.Profiles = profiles }
}

// defaultOptions is the state New starts from before applying options.
func defaultOptions() options {
	return options{
		Shards:     1,
		Params:     core.DefaultParams(),
		CacheBytes: DefaultCacheBytes,
	}
}

// applyDefaults fills zero Params fields with the paper's defaults, so
// every consumer of New gets the same partial-Params behavior.
func (o *options) applyDefaults() {
	def := core.DefaultParams()
	if o.Params.TLow == 0 {
		o.Params.TLow = def.TLow
	}
	if o.Params.THigh == 0 {
		o.Params.THigh = def.THigh
	}
	if o.Params.K == 0 {
		o.Params.K = def.K
	}
}

// fillProfile resolves a possibly-partial profile against the fleet-base
// Params: Weight 0 becomes 1, and zero thresholds scale the fleet defaults
// by the weight (rounding to at least 1), so {Weight: 4} yields
// {TLow: 100, THigh: 260, Weight: 4} under the paper's defaults.
func (o options) fillProfile(p core.Profile) core.Profile {
	if p.Weight == 0 {
		p.Weight = 1
	}
	if p.TLow == 0 {
		if p.TLow = int(float64(o.Params.TLow)*p.Weight + 0.5); p.TLow < 1 {
			p.TLow = 1
		}
	}
	if p.THigh == 0 {
		if p.THigh = int(float64(o.Params.THigh)*p.Weight + 0.5); p.THigh <= p.TLow {
			p.THigh = p.TLow + 1
		}
	}
	return p
}

// profileFor returns node i's resolved capacity profile: the filled
// Profiles entry when present, otherwise the uniform profile Params imply.
func (o options) profileFor(i int) core.Profile {
	if i >= 0 && i < len(o.Profiles) {
		return o.fillProfile(o.Profiles[i])
	}
	return o.Params.Profile()
}

// resolvedProfiles returns the filled per-node profile for every initial
// node.
func (o options) resolvedProfiles() []core.Profile {
	out := make([]core.Profile, o.Nodes)
	for i := range out {
		out[i] = o.profileFor(i)
	}
	return out
}

// validate checks the resolved options.
func (o options) validate() error {
	switch {
	case o.Nodes < 1:
		return fmt.Errorf("lard: Nodes = %d, need >= 1 (use WithNodes)", o.Nodes)
	case o.Shards < 1:
		return fmt.Errorf("lard: Shards = %d, need >= 1", o.Shards)
	case o.CacheBytes < 0:
		return fmt.Errorf("lard: negative CacheBytes")
	case len(o.Profiles) > o.Nodes:
		return fmt.Errorf("lard: %d profiles for %d nodes", len(o.Profiles), o.Nodes)
	}
	if err := o.Params.Validate(); err != nil {
		return err
	}
	for i := range o.Profiles {
		if err := o.fillProfile(o.Profiles[i]).Validate(); err != nil {
			return fmt.Errorf("lard: profile for node %d: %w", i, err)
		}
	}
	return nil
}

// budget resolves the per-shard admission budget at construction: 0 means
// unlimited internally.
func (o options) budget() int { return o.budgetOver(o.resolvedProfiles()) }

// budgetOver resolves the per-shard admission budget for the given
// eligible-node profiles — membership and profile changes recompute the
// generalized S through it. On a uniform fleet this is exactly the
// paper's S = (n−1)·T_high + T_low + 1. An explicit WithMaxOutstanding
// value (positive or negative) is independent of the fleet and never
// recomputes.
func (o options) budgetOver(profiles []core.Profile) int {
	switch {
	case o.MaxOutstanding < 0:
		return 0
	case o.MaxOutstanding == 0:
		return core.MaxOutstandingOver(profiles)
	default:
		return o.MaxOutstanding
	}
}
