package main

import "testing"

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"32m":  32 << 20,
		"512k": 512 << 10,
		"1g":   1 << 30,
		"123":  123,
		" 8M ": 8 << 20,
	}
	for in, want := range cases {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Fatalf("parseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	// 17179869185g is 2^64 + 2^30 bytes: it used to wrap to 1 GiB.
	for _, bad := range []string{"", "x", "-1", "12q", "17179869185g", "9223372036854775807k"} {
		if _, err := parseBytes(bad); err == nil {
			t.Fatalf("parseBytes(%q) accepted", bad)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"rice", "ibm", "chess", "RICE"} {
		if _, err := profileByName(name); err != nil {
			t.Fatalf("profileByName(%q): %v", name, err)
		}
	}
	if _, err := profileByName("unknown"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}
