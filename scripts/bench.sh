#!/bin/sh
# bench.sh — run the hot-path benchmarks and record the trajectory.
#
# Runs BenchmarkDispatch and BenchmarkSessionDispatch (module root)
# across -cpu 1,4 — the locked-vs-sharded dispatcher scaling matrix —
# plus BenchmarkHandoffDial (internal/frontend, pooled vs fresh-dial
# handoff) and BenchmarkRelayResponse / BenchmarkRelayRequestBody
# (internal/httprelay, the pooled-buffer relay path) with -benchmem, and
# writes the parsed results to BENCH_PR10.json next to the repo root, so
# successive PRs can diff the hot-path numbers. When the previous PR's
# report (BENCH_PR9.json) is present, benchgate.go compares the handoff
# and relay B/op and allocs/op columns against it and fails the run on a
# >15% allocation regression. It then invokes the saturation harness
# (cmd/capacity), which merges the end-to-end knee report into the same
# file under the "capacity" key, and — with HERD=1 — follows it with the
# thundering-herd overload experiment, recorded under "herd" with the
# well-behaved cohort's goodput and the abuser's shed counts. Usage:
#
#	scripts/bench.sh [benchtime]     # default 1s
#
# SKIP_CAPACITY=1 skips the (minutes-long) saturation sweep;
# CAPACITY_FLAGS="-smoke" runs it in smoke mode instead; HERD=1 chains
# the thundering-herd overload experiment after the sweep.
#
# Requires only the go toolchain and awk.
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-1s}"
out="BENCH_PR10.json"
baseline="BENCH_PR9.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -bench 'BenchmarkDispatch$|BenchmarkSessionDispatch$' -benchtime "$benchtime" -benchmem -cpu 1,4 -run '^$' . | tee "$raw"
go test -bench 'BenchmarkHandoffDial' -benchtime "$benchtime" -benchmem -run '^$' ./internal/frontend | tee -a "$raw"
go test -bench 'BenchmarkRelayResponse$|BenchmarkRelayRequestBody$' -benchtime "$benchtime" -benchmem -run '^$' ./internal/httprelay | tee -a "$raw"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
	/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
	/^Benchmark/ && NF >= 4 && $4 == "ns/op" {
		if (n++) results = results ",\n"
		results = results sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", $1, $2, $3)
		# Custom metrics (dispatch/s, MB/s) shift the -benchmem columns,
		# so find them by unit rather than by position.
		for (i = 5; i < NF; i += 2) {
			if ($(i + 1) == "B/op")
				results = results sprintf(", \"bytes_per_op\": %s", $i)
			else if ($(i + 1) == "allocs/op")
				results = results sprintf(", \"allocs_per_op\": %s", $i)
		}
		results = results "}"
	}
	END {
		printf "{\n  \"date\": \"%s\",\n  \"cpu\": \"%s\",\n  \"benchmarks\": [\n%s\n  ]\n}\n", date, cpu, results
	}
' "$raw" > "$out"
echo "wrote $out"

if [ -f "$baseline" ]; then
	go run scripts/benchgate.go "$baseline" "$out"
fi

if [ "${SKIP_CAPACITY:-}" != "1" ]; then
	herd=""
	[ "${HERD:-}" = "1" ] && herd="-herd"
	# CAPACITY_FLAGS is intentionally word-split (e.g. "-smoke -nodes 2").
	go run ./cmd/capacity -o "$out" $herd ${CAPACITY_FLAGS:-}
fi
