# Development entry points. CI runs `make verify`, `make bench`,
# `make perfbench-smoke` and the smoke, chaos and fuzz targets;
# everything here is plain Go tooling with no external dependencies.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race lint vet vuln verify bench perfbench-smoke fuzz serve-smoke fabric-smoke store-smoke crash-smoke chaos

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# siptlint: the repo's own determinism/accounting/concurrency/contract
# analyzers (see internal/lint). Non-zero exit on any finding; -timing
# prints per-analyzer wall time so slow analyzers are visible.
lint:
	$(GO) run ./cmd/siptlint -timing ./...

vet:
	$(GO) vet ./...

# govulncheck is optional tooling: run it when installed, skip quietly
# in hermetic environments that cannot fetch it.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo 'vuln: govulncheck not installed, skipping'; \
	fi

verify:
	scripts/verify.sh

# Benchmark smoke: run the fixed subset and compare against the
# committed reference; fails on a >20% throughput or a >10%
# allocs/record regression (see scripts/bench.sh).
bench:
	scripts/bench.sh

# Same-host benchmark smoke: perfbench's own tests, then one short
# sweep (Fig. 18) and one short mix (Fig. 15) run. Each run exits
# non-zero when a table digest differs from the stored reference in
# perfbench/testdata/reference.json, so this gates byte identity of
# the benchmarked figures, not speed. Builds go to .bench_build/.
perfbench-smoke:
	cd perfbench && $(GO) test ./...
	sh perfbench/run.sh --workload sweep --seed 3 --seconds 1 --trace 0
	sh perfbench/run.sh --workload mix --seed 3 --seconds 1 --trace 0

# Service smoke: boot siptd on an ephemeral port, drive a run and a
# sweep through the HTTP API, then SIGTERM and require a clean drain.
serve-smoke:
	scripts/serve_smoke.sh

# Fabric smoke: boot two workers plus a coordinator and a single-node
# daemon, drive the same workload through both, and require the
# reports to be byte-identical (plus clean drains all round).
fabric-smoke:
	scripts/fabric_smoke.sh

# Store smoke: boot siptd with a persistent store, ingest a trace,
# sweep, kill and restart over the same directory; the warm sweep must
# come back byte-identical from disk with zero simulations.
store-smoke:
	scripts/store_smoke.sh

# Crash smoke: boot siptd with a job journal, SIGKILL it mid-sweep,
# restart over the same directories; the revived daemon must resume the
# sweep from its lane checkpoints and serve a byte-identical report
# with dense job IDs.
crash-smoke:
	scripts/crash_smoke.sh

# Chaos: the fault-injection acceptance suite (internal/fault) under the
# race detector — seeded panics, evictions, and transient failures
# against the full serving stack. Short mode keeps it CI-sized.
chaos:
	$(GO) test -race -short -run 'TestChaos|TestDecideMatchesFire' ./internal/fault/
	$(GO) test -race -short -run 'TestPanicIsolation|TestInjectedWorkerPanic' ./internal/sched/
	$(GO) test -race -short -run 'TestChaos' ./internal/fabric/

# Native Go fuzzing over the pure bit-math and allocator invariants,
# the memo cache's budget and singleflight invariants, plus the lint
# loader/dataflow stack on generated Go sources.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzIndexDelta -fuzztime=$(FUZZTIME) ./internal/memaddr/
	$(GO) test -run='^$$' -fuzz=FuzzUnchangedBits -fuzztime=$(FUZZTIME) ./internal/memaddr/
	$(GO) test -run='^$$' -fuzz=FuzzAlignAndLog2 -fuzztime=$(FUZZTIME) ./internal/memaddr/
	$(GO) test -run='^$$' -fuzz=FuzzBuddy -fuzztime=$(FUZZTIME) ./internal/vm/
	$(GO) test -run='^$$' -fuzz=FuzzCache -fuzztime=$(FUZZTIME) ./internal/memo/
	$(GO) test -run='^$$' -fuzz=FuzzLoader -fuzztime=$(FUZZTIME) ./internal/lint/
	$(GO) test -run='^$$' -fuzz=FuzzReadBuffer -fuzztime=$(FUZZTIME) ./internal/tracefile/
	$(GO) test -run='^$$' -fuzz=FuzzCanonicalRoundTrip -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/journal/
