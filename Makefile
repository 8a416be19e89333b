# Convenience targets for the nwscpu reproduction.

GO ?= go
GOFMT ?= gofmt
# Per-fuzzer budget for fuzz-smoke; raise locally for a deeper run, e.g.
#   make fuzz-smoke FUZZTIME=2m
FUZZTIME ?= 5s

.PHONY: all build test test-race chaos chaos-cluster chaos-repair chaos-persist vet docs-check fuzz-smoke grid grid-smoke benchmark-smoke bench bench-forecast bench-paper experiments report clean

all: build vet docs-check test chaos-cluster chaos-repair chaos-persist fuzz-smoke grid-smoke benchmark-smoke

build:
	$(GO) build ./...

# Static checks: go vet plus a gofmt cleanliness gate.
vet:
	$(GO) vet ./...
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Tier-1 flow: the full suite, plus the race detector on the concurrent
# observability, daemon, and resilience packages.
test: test-race
	$(GO) test ./...

test-race:
	$(GO) test -race ./internal/metrics ./internal/nwsnet ./internal/resilience/...

# Fault-injection suite under the race detector: the resilience package's
# own tests plus the chaos integration scenarios (replica killed mid-run,
# full-outage backlog drain, seeded-schedule determinism).
chaos:
	$(GO) test -race ./internal/resilience/...
	$(GO) test -race -run 'Chaos' -v ./internal/nwsnet

# Partitioned-cluster failover smoke under the race detector: a 3-node
# cluster with writers streaming, one shard owner killed mid-run, a
# replacement joining via rebalancing handoff — asserts zero measurement
# loss, bounded unavailability, and bit-identical convergence against a
# single-node reference. Ten runs: the stale-owner hole this scenario used to
# fall into opened in roughly one run in three, so a single pass proves little.
chaos-cluster:
	$(GO) test -race -run 'ChaosCluster' -count=10 ./internal/nwsnet

# Repair-plane fault campaign under the race detector: the repair and
# hinted-handoff unit suites plus the seeded fault campaign (crashes past
# the backlog window, stalls, asymmetric partitions, clock skew) run with
# and without anti-entropy — asserting zero loss and bounded bit-identical
# convergence with repair, reproduced divergence without — then the same
# campaign executed twice through the CLI and compared byte for byte.
chaos-repair:
	$(GO) test -race -run 'Repair|Hint|Fault|ReplicaDivergence' -count=1 ./internal/nwsnet ./internal/grid
	$(GO) run -race ./cmd/nwsgrid -faults -seed 1 -out /tmp/nwsgrid.fault.a >/dev/null
	$(GO) run -race ./cmd/nwsgrid -faults -seed 1 -out /tmp/nwsgrid.fault.b >/dev/null
	cmp /tmp/nwsgrid.fault.a /tmp/nwsgrid.fault.b

# Durable-memory crash campaign under the race detector: the Persist suites
# (round trips, checkpoints, backfill durability, concurrent log order) plus
# the seeded campaign — the newest log generation cut at 240 byte offsets and
# bit-flipped in its last frame, a crash in every window of a checkpoint,
# corruption in the middle of a log — each reopened and compared against a
# ledger of what had been acknowledged.
chaos-persist:
	$(GO) test -race -run 'Persist' -count=1 ./internal/nwsnet

# Doc drift gate: docs/PROTOCOL.md (the normative wire spec) is compared
# against the codec — the opcode tables both ways, and the worked hex/JSON
# examples byte for byte; then README, DESIGN, docs/ and the verify skill are
# held to the tree — every make target, cmd/ directory and nwsd/nwsctl flag
# they show must exist.
docs-check:
	$(GO) test -run 'TestProtocolDoc' -count=1 ./internal/nwsnet
	$(GO) test -run 'TestDocsNameWhatExists' -count=1 .

# Bounded fuzzing of both halves of the wire protocol in both codecs: the
# server-side request decode/execute path and the client-side response
# decode and shed/busy error classification, for the v1 JSON line codec
# (which also cross-checks v2 round-trips of whatever JSON decodes) and the
# v2 binary frame codec; then the durable memory's on-disk decoders (log
# frames and records, snapshot images). Go fuzzers must run one at a time, so
# each gets its own invocation of $(FUZZTIME).
fuzz-smoke:
	$(GO) test -run - -fuzz 'FuzzDecodeRequest$$' -fuzztime $(FUZZTIME) ./internal/nwsnet
	$(GO) test -run - -fuzz 'FuzzDecodeResponse$$' -fuzztime $(FUZZTIME) ./internal/nwsnet
	$(GO) test -run - -fuzz 'FuzzDecodeBinaryRequest$$' -fuzztime $(FUZZTIME) ./internal/nwsnet
	$(GO) test -run - -fuzz 'FuzzDecodeBinaryResponse$$' -fuzztime $(FUZZTIME) ./internal/nwsnet
	$(GO) test -run - -fuzz 'FuzzWALFrame$$' -fuzztime $(FUZZTIME) ./internal/nwsnet
	$(GO) test -run - -fuzz 'FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME) ./internal/nwsnet

# Grid-scale capacity baseline: the full 1000-host scenario harness
# regenerating BENCH_grid.json (schema nws/grid-report/v1). Deterministic:
# rerunning with an unchanged harness leaves the file byte-identical.
grid:
	$(GO) run ./cmd/nwsgrid -seed 1 -json BENCH_grid.json

# CI smoke for the harness: the grid package and nwsgrid CLI tests under
# the race detector (including the same-seed byte-identity checks), then a
# down-scaled run executed twice and compared byte for byte.
grid-smoke:
	$(GO) test -race -count=1 ./internal/grid ./cmd/nwsgrid
	$(GO) run ./cmd/nwsgrid -smoke -hosts 21 -duration 120 -out /tmp/nwsgrid.smoke.a >/dev/null
	$(GO) run ./cmd/nwsgrid -smoke -hosts 21 -duration 120 -out /tmp/nwsgrid.smoke.b >/dev/null
	cmp /tmp/nwsgrid.smoke.a /tmp/nwsgrid.smoke.b

# The repository benchmark (benchmark/, BENCHMARK.json) is a Go module of its
# own, outside `go test ./...`: vet it and run its unit tests, a 2% scale
# pass of all five workloads with their verification, traced and untraced.
benchmark-smoke:
	cd benchmark && $(GO) vet . && $(GO) test .

# Forecaster hot-path microbenchmarks with allocation accounting (the
# end-to-end numbers come from benchmark/; docs/PERFORMANCE.md).
bench-forecast:
	$(GO) test -run - -bench 'BenchmarkEngine|BenchmarkBank' -benchmem ./internal/forecast

# One iteration of every table/figure/ablation benchmark at 6-hour scale.
bench:
	$(GO) test -bench . -benchtime 1x -benchmem .

# The paper's dimensions: 24-hour monitored runs, 1-week Hurst traces.
bench-paper:
	NWSBENCH_SCALE=paper $(GO) test -bench . -benchtime 1x -benchmem .

# Regenerate every table and figure at paper scale on stdout.
experiments:
	$(GO) run ./cmd/nwsbench all

# Paper-scale HTML report plus archived CSV traces under ./out.
report:
	$(GO) run ./cmd/nwsbench -save out/traces -html out/report.html all

clean:
	rm -rf out
