package core

// HashSeed and HashTarget are the dispatch stack's one target hash: an
// inlined, allocation-free FNV-1a, bit-identical to hash/fnv's New64a
// over salt followed by target. Each user salts it differently so that
// the partitions they derive from the same target names are decorrelated:
// LB uses no salt, and the dispatcher's shard pick (pkg/lard) the single
// byte 0x73.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashSeed returns the hash state after the salt bytes, to be computed
// once and passed to HashTarget per request.
func HashSeed(salt ...byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range salt {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// HashTarget continues the hash from seed over the target name.
func HashTarget(seed uint64, target string) uint64 {
	h := seed
	for i := 0; i < len(target); i++ {
		h = (h ^ uint64(target[i])) * fnvPrime64
	}
	return h
}
