#!/usr/bin/env bash
# Fails when a test that .github/workflows/ci.yml names — in a `-run '...'`
# list, a `-fuzz '...'` pattern or a `for t in ...` fuzz loop — matches no
# `func TestX(` / `func FuzzX(` in the tree. go test passes a -run pattern
# that matches nothing, so a name left stale by a rename or a move would
# make its step pass having run nothing.
#
#   scripts/cinames.sh
set -euo pipefail
cd "$(dirname "$0")/.."
ci=.github/workflows/ci.yml

run=$(grep -oE -- "-run '[^']*'" "$ci" | sed -E "s/^-run '//; s/'\$//" | tr '|' '\n')
fuzz=$( {
	grep -oE -- "-fuzz '[^']*'" "$ci" | sed -E "s/^-fuzz '//; s/'\$//"
	grep -E '^[[:space:]]*for t in ' "$ci" | sed -E 's/^[[:space:]]*for t in //; s/;.*$//' | tr ' ' '\n'
} )

missing=0
check() {
	local kind=$1 names n count=0
	names=$(sed -E 's/^\^//; s/\$$//' | grep -E '^(Test|Fuzz)[A-Za-z0-9_]*$' | sort -u)
	for n in $names; do
		count=$((count + 1))
		if ! grep -rqE --include='*_test.go' --exclude-dir=.bench_build "^func ${n}\(" .; then
			echo "ci.yml names $n ($kind), which no func in the tree defines" >&2
			missing=1
		fi
	done
	echo "$count $kind names"
}
check -run <<<"$run"
check fuzz <<<"$fuzz"
exit $missing
