#!/usr/bin/env bash
# Code lines per package: the one definition behind ROADMAP's "report net
# non-test LoC". Counts lines of non-test, non-testdata Go files, leaving
# out blank lines and lines that hold only a comment.
#
#   scripts/loc.sh                       every package, plus a total
#   scripts/loc.sh internal/core pkg/lard   just these directories
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -gt 0 ]; then
	files=$(for d in "$@"; do find "$d" -maxdepth 1 -name '*.go'; done)
else
	files=$(find . -name '*.go' -not -path './.bench_build/*')
fi

echo "$files" | grep -v -e '_test\.go$' -e '/testdata/' | sort | xargs awk '
	FNR == 1 { block = 0 }
	{
		line = $0
		gsub(/^[ \t]+|[ \t]+$/, "", line)
		if (block) {
			if (line ~ /\*\//) block = 0
			next
		}
		if (line == "" || line ~ /^\/\//) next
		if (line ~ /^\/\*/) {
			if (line !~ /\*\//) block = 1
			next
		}
		dir = FILENAME
		sub(/\/[^\/]*$/, "", dir)
		sub(/^\.\//, "", dir)
		n[dir]++
		total++
	}
	END {
		for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}
'
