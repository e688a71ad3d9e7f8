package lard

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// ledgerRowName matches a table row's first cell, `name`.
var ledgerRowName = regexp.MustCompile("^\\| `([^`]+)` \\|")

// tableRows returns the first-cell names of the table that follows the
// line starting with heading inside doc's section titled section (up to
// the next heading), sorted.
func tableRows(t *testing.T, doc, section, heading string) []string {
	t.Helper()
	_, body, ok := strings.Cut(doc, "\n"+section+"\n")
	if !ok {
		t.Fatalf("no %q section", section)
	}
	if end := strings.Index(body, "\n#"); end >= 0 {
		body = body[:end]
	}
	var rows []string
	in := false
	for _, line := range strings.Split(body, "\n") {
		switch {
		case !in && strings.HasPrefix(line, heading):
			in = true
		case in && strings.HasPrefix(line, "|"):
			if m := ledgerRowName.FindStringSubmatch(line); m != nil {
				rows = append(rows, m[1])
			}
		case in && len(rows) > 0:
			slices.Sort(rows)
			return rows
		}
	}
	if !in {
		t.Fatalf("section %q has no %q table", section, heading)
	}
	slices.Sort(rows)
	return rows
}

// TestKnobLedgerMatchesBuiltins fails when a table that lists the
// strategies or connection policies and the closed sets disagree: a
// strategy or connection policy with no row, or a row naming one that
// New or NewConnPolicy does not build. The strategy tables are DESIGN.md's
// Knob ledger and Layer 1 tables and README's heterogeneous-fleet table.
func TestKnobLedgerMatchesBuiltins(t *testing.T) {
	read := func(name string) string {
		raw, err := os.ReadFile("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	design, readme := read("DESIGN.md"), read("README.md")

	for _, table := range []struct{ file, doc, section, heading string }{
		{"DESIGN.md", design, "### Knob ledger", "**Strategies**"},
		{"DESIGN.md", design, "## Layer 1: `internal/core` (pure policy)", "| name | skeleton |"},
		{"README.md", readme, "## Heterogeneous fleets: capacity profiles", "| name | skeleton |"},
	} {
		if got, want := tableRows(t, table.doc, table.section, table.heading), Strategies(); !slices.Equal(got, want) {
			t.Errorf("%s %q strategy rows = %v, lard.Strategies() = %v", table.file, table.section, got, want)
		}
	}
	var policies []string
	for _, p := range connPolicies {
		policies = append(policies, p.name)
	}
	slices.Sort(policies)
	if got := tableRows(t, design, "### Knob ledger", "**Connection policies**"); !slices.Equal(got, policies) {
		t.Errorf("Knob ledger's Connection policies rows = %v, policy table = %v", got, policies)
	}
}
