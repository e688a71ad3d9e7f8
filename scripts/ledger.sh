#!/usr/bin/env bash
# Fails when DESIGN.md's "Knob ledger" and the commands disagree: a flag
# registered in cmd/*/main.go that has no ledger row, or a ledger row that
# names a flag no command registers. A flag's row is a table row whose
# first cell is `<command> -<flag>`, e.g. | `lardfe -shards` | ... |.
#
#   scripts/ledger.sh
set -euo pipefail
cd "$(dirname "$0")/.."

registered=$(for f in cmd/*/main.go; do
	cmd=$(basename "$(dirname "$f")")
	{ grep -oE 'flag\.[A-Z][A-Za-z0-9]*\(([^,"]+, )?"[^"]+"' "$f" || true; } |
		sed -E "s/.*\"([^\"]+)\"\$/$cmd -\\1/"
done | sort -u)

rows=$(awk '/^### Knob ledger/ { on = 1; next } on && /^#/ { exit } on' DESIGN.md |
	{ grep -oE '^\| `[a-z]+ -[A-Za-z0-9]+`' || true; } | sed -E 's/^\| `//; s/`$//' | sort -u)

status=0
while read -r flag; do
	[ -n "$flag" ] || continue
	echo "$flag is registered but has no row in DESIGN.md's Knob ledger" >&2
	status=1
done < <(comm -23 <(echo "$registered") <(echo "$rows"))
while read -r flag; do
	[ -n "$flag" ] || continue
	echo "DESIGN.md's Knob ledger has a row for $flag, which no command registers" >&2
	status=1
done < <(comm -13 <(echo "$registered") <(echo "$rows"))
echo "$(echo "$registered" | grep -c .) flags, $(echo "$rows" | grep -c .) ledger rows"
exit $status
