# Convenience targets; CI runs the same steps explicitly (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race lint loc fuzz hetero

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

# hetero runs the heterogeneous-fleet experiment at smoke scale: the
# 4-small+2-big goodput sweep (uniform vs per-node capacity thresholds,
# plus lard/r and wlard) in well under a minute. Raise
# -scale toward 1.0 for paper-sized runs.
hetero:
	$(GO) run ./cmd/lardsim -experiment hetero -scale 0.05 -nodes 6
