# Convenience targets; CI runs the same steps explicitly (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race bench lint loc fuzz capacity capacity-smoke herd hetero

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint mirrors CI's static-analysis gate: formatting, vet, staticcheck
# (when installed — it is not vendored), the project's own lardlint
# suite (lockheld, donecall, wallclock, relayclass, poolpair, noalloc;
# see DESIGN.md "Invariants"), and the rule that every //lard:allow
# waiver outside fixtures carries a written reason.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi
	$(GO) run ./cmd/lardlint ./...
	@bad=$$(grep -rnE --include='*.go' '^[[:space:]]*//lard:allow' . \
		| grep -v '/testdata/' | grep -v '— ' || true); \
	if [ -n "$$bad" ]; then \
		echo "//lard:allow without a '— reason':" >&2; echo "$$bad" >&2; exit 1; fi

# loc prints code lines per package: non-test, non-testdata Go lines,
# blank and comment-only lines excluded (scripts/loc.sh DIR... for a
# subset). CHANGES.md entries quote it before and after.
loc:
	@scripts/loc.sh

# fuzz gives each fuzz target a short budget (CI runs the same smoke).
# FUZZTIME=1m make fuzz for a longer local run; go test accepts one
# -fuzz pattern per invocation, hence the loop.
FUZZTIME ?= 10s
fuzz:
	for t in FuzzReadRequestHead FuzzReadResponseHead FuzzResponseHeadVsNetHTTP FuzzChunkedRelay FuzzRelayResponseFragmented; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) ./internal/httprelay || exit 1; done
	for t in FuzzHeaderDecode FuzzSessionFrames FuzzDoneRecord FuzzDescriptorStream; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) ./internal/handoff || exit 1; done
	$(GO) test -run '^$$' -fuzz '^FuzzTakeoverHeadVsNetHTTP$$' -fuzztime $(FUZZTIME) ./internal/backend

race:
	$(GO) test -race -shuffle=on ./...

# bench runs the hot-path benchmarks (dispatch -cpu 1,4 matrix, handoff,
# relay, all with -benchmem) plus the saturation sweep and writes the
# BENCH_PR10.json trajectory file, gating handoff/relay B/op and
# allocs/op against the committed BENCH_PR9.json baseline
# (scripts/benchgate.go, +15%).
# BENCHTIME=5s make bench for stabler numbers; SKIP_CAPACITY=1 make
# bench to skip the minutes-long sweep.
bench:
	scripts/bench.sh $(BENCHTIME)

# capacity runs only the saturation harness: ramp offered load per
# configuration (locked vs sharded dispatcher x GOMAXPROCS x connection
# policy), binary-search each SLO knee, merge the report into
# BENCH_PR10.json under "capacity".
capacity:
	$(GO) run ./cmd/capacity

# capacity-smoke is the seconds-long CI variant: one policy, current
# GOMAXPROCS, short probes; exercises the whole harness end to end,
# herd experiment included.
capacity-smoke:
	$(GO) run ./cmd/capacity -smoke -herd -nodes 2 -clients 8 -o /tmp/capacity-smoke.json

# herd runs the full thundering-herd overload experiment: measure the
# saturation knee, then offer 10x it with one abusive client identity;
# exits nonzero unless the well-behaved cohort keeps >=90% goodput and
# every abuser shed carries Retry-After. The result merges into
# BENCH_PR10.json under "herd".
herd:
	$(GO) run ./cmd/capacity -herd

# hetero runs the heterogeneous-fleet experiment at smoke scale: the
# 4-small+2-big goodput sweep (uniform vs per-node capacity thresholds,
# plus the pod and wlard strategies) in well under a minute. Raise
# -scale toward 1.0 for paper-sized runs.
hetero:
	$(GO) run ./cmd/lardsim -experiment hetero -scale 0.05 -nodes 6
