# `make ci` is the pre-merge check: tier-1 verification (fmt, vet,
# build, test), the seeded-stream grep, the race gate over RACE_PKGS,
# the allocgate, multiquery, smoke, crash, surge, chaos, obsgate,
# lineage and soak gates described at their targets below, and
# bench-smoke. `make fuzz`,
# `make loc` and the other bench targets are run by hand.

GO ?= go
RACE_PKGS = ./internal/core/... ./internal/aggregator/... ./internal/answer/... ./internal/pubsub/... ./internal/engine/... ./internal/wal/... ./internal/xorcrypt/... ./internal/chaos/... ./internal/telemetry/... ./internal/minisql/... ./internal/client/... ./internal/query/... ./internal/stream/... ./internal/proxy/... ./internal/role/...

# Benchmarks whose numbers seed BENCH_hotpath.json: the per-answer hot
# path (split, join+decrypt+decode+window, randomized response), plus
# the batch-size sweep of the columnar submit tail.
HOTPATH_BENCH = BenchmarkTable2CryptoXOR|BenchmarkTable3ClientXOREncryption|BenchmarkTable3ClientRandomizedResponse|BenchmarkFig8Scalability|BenchmarkFig8SubmitBatch

.PHONY: ci fmt vet seeded build test race smoke multiquery allocgate crash surge chaos obsgate lineage soak bench bench-smoke bench-json fuzz loc

ci: fmt vet seeded build test race allocgate multiquery smoke crash surge chaos obsgate lineage soak bench-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# One door for seeded streams: outside tests, the packages on the answer
# and estimate paths get a seeded *rand.Rand only from seeded.New
# (internal/seeded), never from rand.NewSource.
SEEDED_PATHS = internal/client internal/core internal/aggregator internal/rr internal/sampling internal/role privapprox.go
seeded:
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' 'rand\.NewSource(' $(SEEDED_PATHS))"; \
	if [ -n "$$out" ]; then echo "rand.NewSource outside internal/seeded:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# -short skips the multi-process smoke tests here; the dedicated smoke
# target runs them once (tier-1 `go test ./...` without -short still
# covers everything in one go).
test:
	$(GO) test -short ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# The multi-process loopback deployments: 2 proxy processes + submit +
# clients + aggregator, asserted byte-identical (results and result
# cards) to the in-process pipeline — once more behind -partition-cap,
# where only the aggregator's commits make room for the second client
# process (TestMultiProcessSmokeBounded). The two-query deployment,
# TestMultiProcessMultiQuerySmoke, runs under the lineage target.
smoke:
	$(GO) test -run 'TestMultiProcessSmoke' -count=1 ./cmd/privapprox-node

# The multi-query determinism gate: N concurrent queries over one
# shared fleet must be byte-identical, per query, to N isolated
# single-query runs under a fixed seed (the TCP half lives in smoke).
multiquery:
	$(GO) test -run 'TestMultiQueryMatchesSolo|TestMultiQueryRegisterAndStopMidRun' -count=1 ./internal/core

# The kill-and-resume crash gate: SIGKILL the durable aggregator
# mid-drain (and, separately, a durable proxy mid-deployment), restart
# each from its -data-dir, and require final per-query results
# byte-identical to an uninterrupted run, plus the in-process
# checkpoint/resume protocol over durable brokers. In both, the resume
# arrives after a trim: every checkpoint was followed by a commit, so the
# brokers have released what it covers.
crash:
	$(GO) test -run 'TestCrashRecoveryAggregator|TestCrashRecoveryProxy' -count=1 ./cmd/privapprox-node
	$(GO) test -run 'TestSystemCheckpointResume|TestSystemCheckpointResumeMultiQuery|TestSLOCheckpointResumeMidShed' -count=1 ./internal/core

# The closed-loop overload gate: the same deterministic 10× load surge
# through a controlled (SLO shedding) and an uncontrolled system; the
# controlled run must shed, keep tail lag at the target, and drain its
# backlog while the uncontrolled backlog persists.
surge:
	$(GO) test -run 'TestSurgeGate|TestSLOClosedLoopShedsAndRecovers' -count=1 ./internal/surge ./internal/core

# The seeded fault-injection gate: chaos-wrapped transports (connection
# resets, dropped acks, duplicated deliveries, a proxy kill+restart, a
# redelivery that arrives after the aggregator's commit has trimmed the
# log) drive the full multi-proxy pipeline under ten fault schedules,
# and every run must produce results byte-identical to the fault-free
# baseline with the broker's session dedup absorbing the redeliveries.
chaos:
	$(GO) test -run 'TestChaosGate' -count=1 ./internal/chaos

# The live-introspection gate: a networked deployment with
# -metrics-addr enabled, scraped over HTTP between two client epochs
# (proxy) and mid-drain (aggregator, parked on the -hold-after hook).
# Asserts the core instrument set is present in Prometheus text format,
# traffic counters are monotonic across epochs, the expvar mirror
# serves the same registry, /readyz reports caught-up control sinks,
# and /debug/privapprox/windows serves a live result card consistent
# with the known workload.
obsgate:
	$(GO) test -run 'TestObsGate' -count=1 ./cmd/privapprox-node

# The result-provenance gate: under a fixed seed, every fired window's
# result card (deterministic fields only) must be identical across
# Workers/Shards settings in-process (TestLineageGate) and byte-identical
# between the in-process pipeline and the two-query networked
# deployment (TestMultiProcessMultiQuerySmoke, whose results the gate
# checks too); plus the node-level health plane (/healthz on every role,
# submit /readyz). The exactly-once card-log contract across a SIGKILL
# rides in the crash gate.
lineage:
	$(GO) test -run 'TestLineageGate|TestHealthEndpoints|TestMultiProcessMultiQuerySmoke' -count=1 ./cmd/privapprox-node

# The allocs/op regression gate: split, join, respond-bits, and
# accumulate — per-message and batch forms — must stay at 0 steady-state
# allocations per op, and so must the wire query identifier
# (query.ID.Uint64, hashed on every result-sort comparison), the full aggregator submit tail (per-share and
# batch) likewise — including with the telemetry tracer and histograms
# attached — and the multi-query tail within its small constant; a
# whole client answer (scan, fold, bucketize, randomize, encode, split)
# at 0 as well, and the share plane between the two (submit, publish,
# poll or fetch, decode, join) at ≤ 0.5 allocations per answer
# in-process — a commit, the trim and the reuse of the released slab
# included — and ≤ 1.0 over loopback TCP; a fired window at ≤ 4
# allocations whatever its bucket count, and 128 buckets at less than six
# times the cost of 8 (one Student-t root-find per window, not per
# bucket); and a columnar publish at 0 whatever its size, in memory and
# durable (its batch is grouped by partition in pooled scratch). The
# telemetry package's own instrument primitives are pinned at 0 in their
# in-package gate, re-run here.
allocgate:
	$(GO) test -run 'TestClientAnswerZeroAllocs|TestSharePlaneAllocs|TestPublishColumnsAllocs|TestFireAllocs|TestHotPathZeroAllocs|TestAggregatorSubmitSteadyStateAllocs|TestAggregatorMultiQuerySubmitAllocs|TestFig8SubmitZeroAllocs|TestAggregatorSubmitBatchZeroAllocs|TestFig8TelemetryZeroAllocs' -count=1 .
	$(GO) test -run 'TestInstrumentZeroAllocs' -count=1 ./internal/telemetry
	$(GO) test -run 'TestIDUint64ZeroAllocs' -count=1 ./internal/query

# The flat-memory gate: core.System, 200 clients, a sliding window,
# 3,000 epochs each followed by AdvanceTo. The forced-GC heap at epoch
# 1,500 and at epoch 3,000 must agree within 5 %, and the second half
# may not run slower than 1.5× the first: what the system retains
# depends on its open windows and unconsumed backlog, not on its uptime.
soak:
	$(GO) test -run 'TestSoakFlatHeap' -count=1 .

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEpochPipelineParallel|BenchmarkTCPPipeline|BenchmarkMultiQuery' -benchmem .

# The benchmark harness's own smoke test (~7 s). bench/ is a nested
# module the root build and test never compile, so this is what notices
# a change to a signature it pins (DB.QueryPrepared, client.ReduceLast,
# Buckets.Index, minisql.Parse, ...; the list heads bench/layers.go).
bench-smoke:
	$(GO) test -C bench -count=1 ./...

# Machine-readable performance numbers, seeding the perf trajectory
# across PRs: the hot-path microbenchmarks and the multi-query
# queries-sweep. Each bench run and its JSON conversion are separate
# commands (not a pipe) so a failing benchmark fails the target instead
# of silently writing an empty report.
bench-json:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' -benchmem . > .bench_hotpath.tmp
	$(GO) run ./cmd/benchjson -out BENCH_hotpath.json < .bench_hotpath.tmp
	@rm -f .bench_hotpath.tmp
	@echo wrote BENCH_hotpath.json
	$(GO) test -run '^$$' -bench 'BenchmarkMultiQuery' -benchmem . > .bench_multiquery.tmp
	$(GO) run ./cmd/benchjson -out BENCH_multiquery.json < .bench_multiquery.tmp
	@rm -f .bench_multiquery.tmp
	@echo wrote BENCH_multiquery.json
	$(GO) test -run '^$$' -bench 'BenchmarkWALAppend|BenchmarkWALAppendBatch|BenchmarkWALRecovery' -benchmem ./internal/wal > .bench_wal.tmp
	$(GO) run ./cmd/benchjson -out BENCH_wal.json < .bench_wal.tmp
	@rm -f .bench_wal.tmp
	@echo wrote BENCH_wal.json
	$(GO) test -run '^$$' -bench 'BenchmarkOverloadFrontier' -benchmem ./internal/surge > .bench_overload.tmp
	$(GO) run ./cmd/benchjson -out BENCH_overload.json < .bench_overload.tmp
	@rm -f .bench_overload.tmp
	@echo wrote BENCH_overload.json
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetry|BenchmarkFig8SubmitBatchInstrumented' -benchmem . > .bench_telemetry.tmp
	$(GO) run ./cmd/benchjson -out BENCH_telemetry.json < .bench_telemetry.tmp
	@rm -f .bench_telemetry.tmp
	@echo wrote BENCH_telemetry.json

# Short fuzz smoke over every wire and disk codec — the share
# split/join, the answer message, the columnar publish frame
# (opPublishColumns, session tag included), the partition-WAL record
# (0xF5 session tag included), the client side of the fetch response
# (views into the frame), the control-plane query-set
# announcement, the WAL record framing, the one checkpoint record
# (consumer positions, system section, fired results, aggregator state)
# — plus the SLO controller's checkpoint state and the minisql parser
# (whatever parses must bind or be refused, and run, without panicking).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSplitJoinRoundTrip -fuzztime 10s ./internal/xorcrypt
	$(GO) test -run '^$$' -fuzz FuzzMessageRoundTrip -fuzztime 10s ./internal/answer
	$(GO) test -run '^$$' -fuzz FuzzFrameV2RoundTrip -fuzztime 10s ./internal/pubsub
	$(GO) test -run '^$$' -fuzz FuzzPartitionRecord -fuzztime 10s ./internal/pubsub
	$(GO) test -run '^$$' -fuzz FuzzFetchResponse -fuzztime 10s ./internal/pubsub
	$(GO) test -run '^$$' -fuzz FuzzQuerySetRoundTrip -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzWALRecordRoundTrip -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzCheckpointRecord -fuzztime 10s ./internal/role
	$(GO) test -run '^$$' -fuzz FuzzSLOControllerRestore -fuzztime 10s ./internal/budget
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/minisql

# The two size numbers ROADMAP tracks: non-test Go lines per package
# (the root module only; bench/ is its own module) and the exported
# identifiers of internal/pubsub, the widest internal API — top-level
# functions, types, variables and constants plus exported methods.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | while read -r pkg dir files; do \
		[ -n "$$files" ] || continue; \
		printf '%6d  %s\n' "$$(cd "$$dir" && cat $$files | wc -l)" "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%6d  total non-test Go lines\n", total }'
	@printf '%6d  exported identifiers in internal/pubsub\n' \
		"$$($(GO) doc -all ./internal/pubsub | grep -cE '^(func|type) |^(var|const) [A-Z]|^	[A-Z][A-Za-z0-9]* += ')"
