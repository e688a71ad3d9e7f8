package lard

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// ledgerRowName matches a knob ledger row's first cell, `name`.
var ledgerRowName = regexp.MustCompile("^\\| `([^`]+)` \\|")

// ledgerRows returns the first-cell names of the table that follows the
// line starting with heading inside DESIGN.md's "Knob ledger" section,
// sorted.
func ledgerRows(t *testing.T, design, heading string) []string {
	t.Helper()
	_, ledger, ok := strings.Cut(design, "\n### Knob ledger\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "### Knob ledger" section`)
	}
	if end := strings.Index(ledger, "\n#"); end >= 0 {
		ledger = ledger[:end]
	}
	var rows []string
	in := false
	for _, line := range strings.Split(ledger, "\n") {
		switch {
		case strings.HasPrefix(line, heading):
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
		t.Fatalf("DESIGN.md's Knob ledger has no %q table", heading)
	}
	slices.Sort(rows)
	return rows
}

// TestKnobLedgerMatchesBuiltins fails when DESIGN.md's Knob ledger and
// the closed sets disagree: a strategy or connection policy with no row,
// or a row naming one that New or NewConnPolicy does not build.
func TestKnobLedgerMatchesBuiltins(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(raw)

	if got, want := ledgerRows(t, design, "**Strategies**"), Strategies(); !slices.Equal(got, want) {
		t.Errorf("Knob ledger's Strategies rows = %v, lard.Strategies() = %v", got, want)
	}
	var policies []string
	for _, p := range connPolicies {
		policies = append(policies, p.name)
	}
	slices.Sort(policies)
	if got := ledgerRows(t, design, "**Connection policies**"); !slices.Equal(got, policies) {
		t.Errorf("Knob ledger's Connection policies rows = %v, policy table = %v", got, policies)
	}
}
