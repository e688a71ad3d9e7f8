package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// HashTarget must stay hash/fnv's FNV-1a over salt‖target for the salts in
// use, or every lb and pod placement (and every shard pick) moves.
func TestHashTargetMatchesFNV(t *testing.T) {
	var pod0, pod1 [8]byte
	binary.LittleEndian.PutUint64(pod1[:], 1)
	for name, salt := range map[string][]byte{
		"lb":    nil,
		"pod/0": pod0[:],
		"pod/1": pod1[:],
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
	// The seeds the strategies actually hold.
	if lb := NewLB(&fakeLoads{loads: []int{0}}); lb.seeds[0] != HashSeed() {
		t.Error("lb is salted")
	}
	pod := NewPOD(&fakeLoads{loads: []int{0}}, DefaultParams())
	if pod.seeds[0] != HashSeed(pod0[:]...) || pod.seeds[1] != HashSeed(pod1[:]...) {
		t.Error("pod salts are not the little-endian candidate numbers")
	}
}
