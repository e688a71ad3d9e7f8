package lard

import (
	"slices"
	"strings"
	"testing"
)

func TestBuiltinStrategiesRegistered(t *testing.T) {
	names := Strategies()
	if want := []string{"lard", "lard/r", "lb", "lb/gc", "wlard", "wrr"}; !slices.Equal(names, want) {
		t.Fatalf("Strategies() = %v, want %v", names, want)
	}
	// Aliases resolve but are not listed — operators see canonical names.
	for _, alias := range []string{"lardr", "lbgc"} {
		for _, n := range names {
			if n == alias {
				t.Fatalf("alias %q listed in Strategies() = %v", alias, names)
			}
		}
	}
}

func TestAliasResolvesToCanonicalName(t *testing.T) {
	d, err := New("lardr", WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "lard/r" {
		t.Fatalf("alias dispatcher Name() = %q, want canonical \"lard/r\"", d.Name())
	}
}

func TestNewByNameAndAliases(t *testing.T) {
	for _, name := range []string{"wrr", "lb", "lb/gc", "lbgc", "lard", "lard/r", "lardr", "LARD/R", " wrr "} {
		d, err := New(name, WithNodes(4))
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if d.NodeCount() != 4 || d.Shards() != 1 {
			t.Fatalf("New(%q): nodes=%d shards=%d", name, d.NodeCount(), d.Shards())
		}
		node, done, err := d.Dispatch(0, Request{Target: "/x"})
		if err != nil || node < 0 || node >= 4 {
			t.Fatalf("New(%q).Dispatch = %d, %v", name, node, err)
		}
		done()
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New("bogus", WithNodes(2)); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown strategy: err = %v", err)
	}
	if _, err := New("wrr"); err == nil {
		t.Fatal("missing WithNodes accepted")
	}
	if _, err := New("wrr", WithNodes(2), WithShards(-1)); err == nil {
		t.Fatal("negative shards accepted")
	}
	if _, err := New("lard", WithNodes(2), WithParams(Params{TLow: 0, THigh: 5})); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := New("lb/gc", WithNodes(2), WithCacheBytes(-1)); err == nil {
		t.Fatal("negative cache bytes accepted")
	}
}
