package lard

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Factory builds one strategy instance over the given load view. The
// dispatcher calls it once per shard; loads reports only the connections
// that shard has claimed. Factories must validate their inputs and return
// an error rather than panic.
type Factory func(loads LoadReader, o Options) (Strategy, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]Factory)
	aliases  = make(map[string]string)
)

// normalize canonicalizes a registry name: lower-cased, trimmed.
func normalize(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// Register makes a strategy available to New under the given name
// (case-insensitive). It panics if the name is empty, the factory is nil,
// or the name is already taken — registration conflicts are programmer
// errors, caught at init time.
func Register(name string, f Factory) {
	name = normalize(name)
	if name == "" {
		panic("lard: Register with empty strategy name")
	}
	if f == nil {
		panic(fmt.Sprintf("lard: Register(%q) with nil factory", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("lard: strategy %q registered twice", name))
	}
	if _, dup := aliases[name]; dup {
		panic(fmt.Sprintf("lard: strategy %q already registered as an alias", name))
	}
	registry[name] = f
}

// RegisterAlias makes alias resolve to the strategy registered under name;
// dispatchers built through the alias report the canonical Name. It panics
// on an empty or taken alias, or an unregistered name.
func RegisterAlias(alias, name string) {
	alias, name = normalize(alias), normalize(name)
	if alias == "" {
		panic("lard: RegisterAlias with empty alias")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[name]; !ok {
		panic(fmt.Sprintf("lard: RegisterAlias(%q, %q): unknown strategy", alias, name))
	}
	if _, dup := registry[alias]; dup {
		panic(fmt.Sprintf("lard: alias %q already registered as a strategy", alias))
	}
	if _, dup := aliases[alias]; dup {
		panic(fmt.Sprintf("lard: alias %q registered twice", alias))
	}
	aliases[alias] = name
}

// Strategies returns the canonical registered strategy names, sorted.
// Aliases are omitted.
func Strategies() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup resolves a (possibly aliased) name to its factory and canonical
// name.
func lookup(name string) (Factory, string, error) {
	key := normalize(name)
	regMu.RLock()
	if target, ok := aliases[key]; ok {
		key = target
	}
	f, ok := registry[key]
	regMu.RUnlock()
	if !ok {
		return nil, "", fmt.Errorf("lard: unknown strategy %q (registered: %s)",
			name, strings.Join(Strategies(), ", "))
	}
	return f, key, nil
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
	f, name, err := lookup(name)
	if err != nil {
		return nil, err
	}

	shards := make([]*lockedShard, o.Shards)
	for i := range shards {
		sh, err := newLockedShard(f, o)
		if err != nil {
			return nil, fmt.Errorf("lard: building %q shard %d: %w", name, i, err)
		}
		shards[i] = sh
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
