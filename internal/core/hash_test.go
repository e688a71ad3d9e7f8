package core

import (
	"hash/fnv"
	"testing"
)

// HashTarget must stay hash/fnv's FNV-1a over salt‖target for the salts in
// use, or every lb placement (and every shard pick) moves.
func TestHashTargetMatchesFNV(t *testing.T) {
	for name, salt := range map[string][]byte{
		"lb":    nil,
		"shard": {0x73},
	} {
		for _, target := range []string{"", "/", "/rice/doc000001.html", "/t\x00\xff?q=é"} {
			h := fnv.New64a()
			h.Write(salt)
			h.Write([]byte(target))
			if got := HashTarget(HashSeed(salt...), target); got != h.Sum64() {
				t.Errorf("%s %q: HashTarget = %#x, hash/fnv = %#x", name, target, got, h.Sum64())
			}
		}
	}
	// The seed the strategy actually holds.
	if lb := NewLB(&fakeLoads{loads: []int{0}}); lb.seed != HashSeed() {
		t.Error("lb is salted")
	}
}
