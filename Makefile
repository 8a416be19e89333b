# Convenience targets for the nwscpu reproduction.

GO ?= go
GOFMT ?= gofmt
# Per-fuzzer budget for fuzz-smoke; raise locally for a deeper run, e.g.
#   make fuzz-smoke FUZZTIME=2m
FUZZTIME ?= 5s

.PHONY: all build test test-race paper-golden chaos chaos-cluster chaos-repair chaos-persist vet docs-check fuzz-smoke grid grid-smoke benchmark-smoke bench bench-forecast bench-wire bench-paper experiments report clean

all: build vet docs-check test paper-golden chaos-cluster chaos-repair chaos-persist fuzz-smoke grid-smoke benchmark-smoke

build:
	$(GO) build ./...

# Static checks: go vet, on the host and cross-checked for darwin (the live
# /proc backend must build where it cannot run), plus a gofmt cleanliness gate.
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./...
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Tier-1 flow: the full suite, plus the race detector on the concurrent
# observability, daemon, and resilience packages. Then ten more race passes
# over the server's connection lifecycle — serve loop, subscriptions, pushes
# and overload sheds — the background loops' start and stop, whose
# teardown ordering one pass proves little about, the client breaker's
# probe admission, where a concurrent call races the probe in flight, and
# the decisions a fake clock drives: lease expiry, tenant refill and the
# queue-wait shed.
test: test-race
	$(GO) test ./...

test-race:
	$(GO) test -race ./internal/metrics ./internal/nwsnet ./internal/resilience/...
	$(GO) test -race -count=10 -run 'TestServer|TestSubscribe|TestPushBatch|TestChaosOverload|TestLoop|TestRepairerStartStop|TestClusterAgent|TestClientBreakerOpensDeniesAndRecovers|TestNameServerLeaseExpiry|TestNameServerAmortizedReap|TestTenantQuotaRefill' ./internal/nwsnet

# Tables 1–6 and Figures 1–4 at the paper's scale (24 h monitored runs,
# 1 week Hurst traces) against testdata/paper.golden, bit for bit. Tier 1
# checks the same cells at quick scale; this one takes about 15 s.
paper-golden:
	$(GO) test -run 'TestPaperGolden$$' -count=1 ./internal/experiments -paper

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

# Repair-plane fault campaign under the race detector: the repair unit
# suites plus the seeded fault campaign (crashes past the backlog window,
# stalls, asymmetric partitions, clock skew) run with and without
# anti-entropy — asserting zero loss and bounded bit-identical convergence
# with repair, and without it exactly the writes the downed replicas missed
# still missing; seeds 1–20 at three and five replicas — then the same
# campaign executed twice through the CLI and compared byte for byte.
chaos-repair:
	$(GO) test -race -run 'Repair|Fault|ReplicaDivergence' -count=1 ./internal/nwsnet ./internal/grid
	$(GO) run -race ./cmd/nwsgrid -faults -seed 1 -out /tmp/nwsgrid.fault.a >/dev/null
	$(GO) run -race ./cmd/nwsgrid -faults -seed 1 -out /tmp/nwsgrid.fault.b >/dev/null
	cmp /tmp/nwsgrid.fault.a /tmp/nwsgrid.fault.b

# Durable-memory crash campaign under the race detector: the Persist suites
# (round trips, checkpoints, backfill durability, concurrent log order) plus
# the seeded campaign — the newest log generation cut at 240 byte offsets and
# bit-flipped in its last frame, a crash in every window of a checkpoint,
# corruption in the middle of a log — each reopened and compared against a
# ledger of what had been acknowledged. It runs at GOMAXPROCS 1 and 4, so
# recovery is checked both serial and spread over several goroutines.
chaos-persist:
	$(GO) test -race -run 'Persist' -count=1 -cpu 1,4 ./internal/nwsnet

# Doc drift gate: docs/PROTOCOL.md (the normative wire spec) is compared
# against the codec — the opcode tables both ways, and the worked hex
# examples byte for byte; then README, DESIGN, docs/ and the verify skill are
# held to the tree — every make target, cmd/ directory and nwsd/nwsctl flag
# they show must exist — and docs/OBSERVABILITY.md to the metric
# registrations, both ways; and every exported Go name in internal/ and cmd/
# to a doc comment that starts with it. Last, every package-level name and
# struct field in internal/ must be used by some non-test file of the module,
# matched by object with go/types (a field must be read, not only set),
# unless docs_test.go's allow-list gives the reason it stays; the gate's
# finder is itself checked against the fixture module in testdata/callers.
docs-check:
	$(GO) test -run 'TestProtocolDoc' -count=1 ./internal/nwsnet
	$(GO) test -run 'TestDocsNameWhatExists|TestDocsMetricsMatchCode|TestDocsExportedNamesDocumented|TestExportsHaveCallers|TestFindCallersFixture' -count=1 .

# Bounded fuzzing of both halves of the wire protocol: the server-side
# request decode/execute path and the client-side response decode and
# shed/busy error classification of the v2 binary frame codec; then the
# durable memory's on-disk decoders (log frames and records, snapshot
# images); then the point codec's uvarint kernels against encoding/binary,
# and the snapshot skim's uvarint skip against a byte-at-a-time one;
# then the forecasters' order-statistics window against a
# copy-and-sort reference; then the parsers of outside input — trace CSV
# files, /proc/stat and /proc/loadavg. Go fuzzers must run one at a time, so each gets
# its own invocation of $(FUZZTIME). The window fuzzer re-sorts its reference
# after every push, so minimizing a long interesting input would eat the
# whole budget: it gets 100 minimization runs per input.
fuzz-smoke:
	$(GO) test -run - -fuzz 'FuzzDecodeBinaryRequest$$' -fuzztime $(FUZZTIME) ./internal/nwsnet
	$(GO) test -run - -fuzz 'FuzzDecodeBinaryResponse$$' -fuzztime $(FUZZTIME) ./internal/nwsnet
	$(GO) test -run - -fuzz 'FuzzWALFrame$$' -fuzztime $(FUZZTIME) ./internal/nwsnet
	$(GO) test -run - -fuzz 'FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME) ./internal/nwsnet
	$(GO) test -run - -fuzz 'FuzzUvarint$$' -fuzztime $(FUZZTIME) ./internal/nwsnet
	$(GO) test -run - -fuzz 'FuzzSkipUvarints$$' -fuzztime $(FUZZTIME) ./internal/nwsnet
	$(GO) test -run - -fuzz 'FuzzOrderWindow$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/series
	$(GO) test -run - -fuzz 'FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/series
	$(GO) test -run - -fuzz 'FuzzParseStat$$' -fuzztime $(FUZZTIME) ./internal/prochost
	$(GO) test -run - -fuzz 'FuzzParseLoadAvg$$' -fuzztime $(FUZZTIME) ./internal/prochost

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

# Forecaster hot-path microbenchmarks with allocation accounting, and the
# order-statistics window under them at w = 5 and 50 (the bank's shortest
# and longest) and 200, each push handed the value it evicts (the end-to-end
# numbers come from benchmark/; docs/PERFORMANCE.md). 'BenchmarkEngine'
# covers BenchmarkEngineUpdateCold, 512 warmed engines updated in turn.
# BenchmarkRefreshTick is one refresh pass over 512 warmed series on
# LocalTransport, in ns per series, on one core and on two.
bench-forecast:
	$(GO) test -run - -bench 'BenchmarkEngine|BenchmarkBank' -benchmem ./internal/forecast
	$(GO) test -run - -bench 'BenchmarkOrderWindow' -benchmem ./internal/series
	$(GO) test -run - -bench 'BenchmarkRefreshTick' -cpu 1,2 -benchmem ./internal/nwsnet

# The v2 store path's server half, one host tick (a batch of three one-point
# stores) at a time, with allocation accounting: the connection decoder's
# decode, Memory.Handle into full rings, and the batch response's encode (the
# end-to-end number is benchmark/'s wire_ingest; docs/PERFORMANCE.md), and
# Memory.Handle under a forecaster refresh round's envelopes: 512 one-point
# stores, then 512 one-point fetches, in ns per sub-request (end to end:
# forecast_serve). Then the read path's point codec: a 1024-point range
# response encoded and decoded, in ns per point (end to end: history_fetch).
# Last, a durable memory's recovery: durable_restart's directory shape (512
# full rings of 1280 in a snapshot, then a log of host-tick frames) opened
# and answering its first fetch, in ns per recovered point (end to end:
# durable_restart's latency).
bench-wire:
	$(GO) test -run - -bench 'BenchmarkDecodeHostTick|BenchmarkMemoryHandleHostTick|BenchmarkMemoryHandleForecastRound|BenchmarkEncodeBatchResponse|BenchmarkClientFetchTail|BenchmarkPointsCodec|BenchmarkReopen' -benchmem ./internal/nwsnet

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
