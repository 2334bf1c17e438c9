# `make ci` is the pre-merge check: tier-1 verification (fmt, vet,
# build, test), the seeded-stream grep, the race gate over RACE_PKGS,
# the allocgate, multiquery, smoke, crash, surge, chaos, obsgate,
# lineage and soak gates described at their targets below, a few
# seconds of fuzzing on every wire and disk decoder (fuzz-decoders),
# bench-smoke, paper-smoke and mutants. The longer `make fuzz`, and the
# size measurements `make loc` and `make unlinked`, are run by hand; the
# benchmark itself is `bash bench/run.sh`, and the paper's tables and
# figures `go run -C paper ./cmd/experiments`.

GO ?= go
RACE_PKGS = ./internal/core/... ./internal/aggregator/... ./internal/answer/... ./internal/pubsub/... ./internal/engine/... ./internal/wal/... ./internal/histstore/... ./internal/xorcrypt/... ./internal/chaos/... ./internal/telemetry/... ./internal/minisql/... ./internal/client/... ./internal/query/... ./internal/stream/... ./internal/proxy/... ./internal/role/...

.PHONY: ci fmt vet seeded build test race smoke multiquery allocgate crash surge chaos obsgate lineage soak bench-smoke paper-smoke mutants fuzz fuzz-decoders loc unlinked

ci: fmt vet seeded build test race allocgate multiquery smoke crash surge chaos obsgate lineage soak fuzz-decoders bench-smoke paper-smoke mutants

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi

# The bench module too: it compiles against the product API.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

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
# process (TestMultiProcessSmokeBounded) — and a deployment whose second
# query is announced while the aggregator runs, every answer of both
# decoding (TestMultiProcessSmokeQueryAddedMidRun). The two-query
# deployment, TestMultiProcessMultiQuerySmoke, runs under the lineage
# target.
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
# arrives after a trim: the node commits after every checkpoint, and
# core.System after every drain — so its resume may seek below the
# brokers' memory floor, and they read that gap back from their WALs
# (TestSystemResumeBehindReleasedEpochs crashes two epochs after the
# checkpoint). In both wirings one schedule registers a second query
# after the checkpoint and before the crash, and the restore installs
# the checkpoint's own query set from the control topic
# (TestCrashRecoveryAggregatorMidRunQuery,
# TestSystemRestoreBeforeLaterRegistration). In process, every control
# change carries the epoch it applies from, so a first life that changed
# the query set after the cut — registrations, stops, a stop and a
# registration again, revisions, several changes between two epochs, a
# shed move after a window fired, an SLO actuation — resumes equal to an
# uninterrupted run (TestSystemRestoreResumesLaterChanges,
# TestSLOCheckpointResumesLaterActuation), and so do one that revised a
# query before it (TestSystemRestoreAfterRevisionBeforeCut) and a second
# life that checkpoints while it still re-reads the first life's answers
# (TestSystemRestoreTwiceMidReplay).
crash:
	$(GO) test -run 'TestCrashRecoveryAggregator|TestCrashRecoveryAggregatorMidRunQuery|TestCrashRecoveryProxy' -count=1 ./cmd/privapprox-node
	$(GO) test -run 'TestSystemCheckpointResume|TestSystemCheckpointResumeMultiQuery|TestSystemResumeBehindReleasedEpochs|TestSystemRestoreBeforeLaterRegistration|TestSystemRestoreResumesLaterChanges|TestSystemRestoreAfterRevisionBeforeCut|TestSystemRestoreTwiceMidReplay|TestSystemCheckpointBeforeFirstRegistration|TestSLOCheckpointResumeMidShed|TestSLOCheckpointResumesLaterActuation' -count=1 ./internal/core

# The closed-loop overload gate: the same deterministic 10× load surge
# through a controlled (SLO shedding) and an uncontrolled system; the
# controlled run must shed, keep tail lag at the target, and drain its
# backlog while the uncontrolled backlog persists. internal/surge holds
# only tests: its harness is harness_test.go.
surge:
	$(GO) test -run 'TestSurgeGate|TestSLOClosedLoopShedsAndRecovers' -count=1 ./internal/surge ./internal/core

# The seeded fault-injection gate: chaos-wrapped transports (connection
# resets, dropped acks, duplicated deliveries, a proxy kill+restart, a
# redelivery that arrives after the aggregator's commit has trimmed the
# log) drive the full multi-proxy pipeline under ten fault schedules,
# and every run must produce results byte-identical to the fault-free
# baseline with the broker's session dedup absorbing the redeliveries.
# internal/chaos holds only tests: its transport is transport_test.go.
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
# Workers settings in-process (TestLineageGate) and byte-identical
# between the in-process pipeline and the two-query networked
# deployment (TestMultiProcessMultiQuerySmoke, whose results the gate
# checks too); plus the node-level health plane (/healthz on every role,
# submit /readyz). The exactly-once card-log contract across a SIGKILL
# rides in the crash gate.
lineage:
	$(GO) test -run 'TestLineageGate|TestHealthEndpoints|TestMultiProcessMultiQuerySmoke' -count=1 ./cmd/privapprox-node

# The allocs/op regression gate: split, join, respond-bits, accumulate
# and the message codec must stay at 0 steady-state allocations per op,
# and so must the wire query identifier (query.ID.Uint64, hashed on
# every result-sort comparison); the aggregator's one submit tail
# (SubmitShareBatch) at 0 for one-share and 64-share batches —
# including with the telemetry tracer and histograms attached — and
# within a small constant with one or several queries; a whole client
# answer (scan, fold, bucketize, randomize, encode, split) at 0 as well,
# and the share plane between the two (batcher, publish, poll or fetch,
# decode, join) at ≤ 0.5 allocations per answer in-process — a commit,
# the trim and the reuse of the released slab included — and ≤ 0.05 over
# loopback TCP, and through the aggregator role's own drain (role.Drain,
# with its commit) at ≤ 0.01 allocations and, once its joiner, slabs and
# scratch have reached their steady size, ≤ 20 heap bytes per answer —
# over loopback TCP, as privapprox-node wires it, at ≤ 0.05 allocations
# and the same ≤ 20 bytes — and through core.System's RunEpoch, whose workers
# drain between chunks, at ≤ 0.01 allocations and ≤ 100 bytes; a TCP
# round trip (a fetch that finds nothing, a commit,
# an end-offset lookup, a fixed publish) at 0, client and server
# together; a fired window at ≤ 4 allocations whatever its bucket
# count, and 128 buckets at less than six times the cost of 8 (one
# Student-t root-find per window, not per bucket); and a columnar
# publish at 0 whatever its size, in memory and durable (its batch is
# grouped by partition in pooled scratch), and a durable consumer-group
# commit at 0 (its meta record is encoded into the broker's scratch; a
# durable core.System commits after every drain). The telemetry package's own
# instrument primitives are pinned at 0 in their in-package gate, re-run
# here, and so are the proxy's forward of a client batch and the control
# plane's share of every epoch (a follower sync that finds nothing new,
# plus the active-query check) and of every drain step (the aggregator
# role's sync that finds nothing new, in process and over TCP). The client role's epoch over 512 clients
# (role.Clients.Epoch, its median epoch) allocates nothing at 1 worker
# and at most 3 and 5 times at 2 and 4, and 3 at 2 workers under a
# 200-share batch limit, whose cut frames wait in a reused FIFO.
allocgate:
	$(GO) test -run 'TestClientAnswerZeroAllocs|TestSharePlaneAllocs|TestPublishColumnsAllocs|TestFireAllocs|TestHotPathZeroAllocs|TestAggregatorSubmitSteadyStateAllocs|TestAggregatorMultiQuerySubmitAllocs|TestFig8SubmitZeroAllocs|TestAggregatorSubmitBatchZeroAllocs|TestFig8TelemetryZeroAllocs' -count=1 .
	$(GO) test -run 'TestInstrumentZeroAllocs' -count=1 ./internal/telemetry
	$(GO) test -run 'TestIDUint64ZeroAllocs' -count=1 ./internal/query
	$(GO) test -run 'TestProxySubmitZeroAllocs' -count=1 ./internal/proxy
	$(GO) test -run 'TestDurableCommitZeroAllocs|TestTCPRoundTripZeroAllocs' -count=1 ./internal/pubsub
	$(GO) test -run 'TestControlPlaneStepZeroAllocs|TestClientsEpochAllocs' -count=1 ./internal/role

# The flat-memory gate: core.System, 200 clients, a sliding window,
# 3,000 epochs each followed by AdvanceTo. At epoch 1,500 and at epoch
# 3,000 the state kept per epoch must be equal by count (open panes per
# query, open windows, pending joins, and the epochs of answers whose
# message IDs the joiner remembers) and the forced-GC heap must agree
# within 5 %: what the system retains depends on its open windows and
# unconsumed backlog, not on its uptime. The in-memory leg's second half
# must also allocate at most 27 bytes per decoded answer
# (runtime.MemStats.TotalAlloc): the steady state reuses its memory, the
# drain's fetch arena included. Wall time is logged only. A second leg
# runs the same system over a DataDir that never checkpoints: a durable
# broker's memory follows the drain, not its WAL.
soak:
	$(GO) test -run 'TestSoakFlatHeap' -count=1 .

# The benchmark harness's own smoke test (~7 s). bench/ is a nested
# module the root build and test never compile, so this is what notices
# a change to a signature it pins (DB.QueryPrepared, client.ReduceLast,
# Buckets.Index, minisql.Parse, ...; the list heads bench/layers.go).
bench-smoke:
	$(GO) test -C bench -count=1 ./...

# The paper's experiments binary (paper/cmd/experiments) is a nested
# module too, outside tier-1; this keeps it vetted and building. The
# comparators it links (internal/baseline/*, internal/cryptobench,
# internal/netsim) are root packages, tested by tier-1.
paper-smoke:
	$(GO) vet -C paper ./...
	$(GO) test -C paper -short -count=1 ./...

# The checked-in mutants (testdata/mutants.json): each entry's one-line
# change, applied with `go test -overlay`, must make its named test
# fail, and an entry whose `old` text no longer occurs exactly once in
# its file fails the run. The tree itself is never edited. See
# tools/mutants.go.
mutants:
	@$(GO) run tools/mutants.go

# Every decoder of bytes a peer or a disk hands the system, fourteen
# targets as package:target — the columnar publish frame
# (opPublishColumns, session tag included), the client side of the fetch
# response (runs viewed inside the frame, counts bounded by the
# request's max), the partition journal's run record (plain and session
# kinds, count/stride/frame-n mismatches, zero pids and unknown kinds
# refused), the partition log's run layout against a plain record model
# (puts of mixed strides and repeated timestamps, records larger than a
# slab, runs straddling slabs, trims inside a run; then the same
# partition's journal reopened and read back below its memory floor),
# the broker's meta journal (topic and commit records: a partition count
# above the bound refused, whatever is accepted re-encoding to the same
# bytes), any request frame through the TCP server (no panic, every
# error reply a known sentinel, an unassigned opcode — the retired topic
# creation (1) and single-record publish (2) among them — refused as
# that unknown opcode), any byte stream through a served connection, cut
# into writes at arbitrary points (no panic, every whole frame answered in
# order until a length prefix above the frame bound closes the
# connection, the connection's name table within its cap), the
# control-plane query-set announcement (the decoded set owning copies of
# every field, its From round-tripping, the opcode without From refused),
# the WAL frame format (frames covering n > 1 LSNs, a replay from inside
# one), the one checkpoint record (consumer positions, system section,
# fired results, aggregator state; PCR2 refused), the
# aggregator state inside it (no panic, its prefixes refused, whatever
# it accepts re-encoding to the same bytes: parked messages, panes,
# estimator stream and memoized losses, pending joins with an empty
# share, completed keys),
# the SLO controller's checkpoint state, the lineage stamp (17 bytes,
# version 2: a version-1 stamp refused), and the
# result-card log (the longest prefix of newline-terminated cards kept,
# an unterminated or undecodable tail truncated, the suppression
# watermark that prefix's, a reopen changing nothing).
FUZZ_DECODERS = \
	./internal/pubsub:FuzzFrameV2RoundTrip \
	./internal/pubsub:FuzzFetchResponse \
	./internal/pubsub:FuzzPartitionRecord \
	./internal/pubsub:FuzzPartitionLog \
	./internal/pubsub:FuzzMetaRecord \
	./internal/pubsub:FuzzServerRequest \
	./internal/pubsub:FuzzServeStream \
	./internal/engine:FuzzQuerySetRoundTrip \
	./internal/wal:FuzzWALRecordRoundTrip \
	./internal/role:FuzzCheckpointRecord \
	./internal/aggregator:FuzzAggregatorRestore \
	./internal/budget:FuzzSLOControllerRestore \
	./internal/telemetry/lineage:FuzzStamp \
	./internal/telemetry/lineage:FuzzCardLog
FUZZTIME ?= 3s

# The time-boxed decoder pass in `make ci`: FUZZTIME per target, after
# the target's own seeds.
fuzz-decoders:
	@for t in $(FUZZ_DECODERS); do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime $(FUZZTIME) -parallel 2 "$${t%%:*}" || exit 1; \
	done

# The manual fuzz run, 10 s per target: every decoder above, plus the
# share split/join, the answer message, the minisql parser (whatever
# parses must bind or be refused, and run, without panicking), the
# minisql column store against a plain [][]Value model (inserts of NULL,
# number — -0, NaN and ±Inf among them —, text and bool cells, a numeric
# column turning mixed, read back through SELECT * and a scan with a
# WHERE), the share joiner against a plain
# two-generation model (adds, pairs, recycles, rotations and checkpoint
# restores into a fresh joiner), a paired round against its proxies'
# slices submitted one after the other (shifted, replayed, dropped and
# reordered shares, rounds cut differently at each proxy), and the
# aggregator's panes against a
# per-window model (sliding geometries whose slide does or does not
# divide the window, late answers, watermark advances, flushes and
# checkpoint restores mid-stream).
fuzz:
	$(MAKE) fuzz-decoders FUZZTIME=10s
	$(GO) test -run '^$$' -fuzz FuzzSplitJoinRoundTrip -fuzztime 10s ./internal/xorcrypt
	$(GO) test -run '^$$' -fuzz FuzzShareJoiner -fuzztime 10s ./internal/stream
	$(GO) test -run '^$$' -fuzz FuzzSubmitRound -fuzztime 10s ./internal/stream
	$(GO) test -run '^$$' -fuzz FuzzPanesMatchWindows -fuzztime 10s ./internal/aggregator
	$(GO) test -run '^$$' -fuzz FuzzMessageRoundTrip -fuzztime 10s ./internal/answer
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/minisql
	$(GO) test -run '^$$' -fuzz FuzzTable -fuzztime 10s ./internal/minisql

# The size numbers ROADMAP tracks: non-test Go lines per package (the
# root module only; bench/ and paper/ are modules of their own) and the
# exported identifiers of every internal/ package that has non-test
# files, with their total — top-level functions, types, variables and
# constants plus exported methods.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | while read -r pkg dir files; do \
		[ -n "$$files" ] || continue; \
		printf '%6d  %s\n' "$$(cd "$$dir" && cat $$files | wc -l)" "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%6d  total non-test Go lines\n", total }'
	@for pkg in $$($(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/...); do \
		printf '%6d  exported identifiers in %s\n' \
			"$$($(GO) doc -all $$pkg | grep -cE '^(func|type) |^(var|const) [A-Z]|^	[A-Z][A-Za-z0-9]* += ')" "$${pkg#privapprox/}"; \
	done | awk '{ print; total += $$1 } END { printf "%6d  exported identifiers in internal/\n", total }'

# The functions and methods of internal/ that no binary links: every
# main of the root module, of bench/ and of paper/ built with inlining
# off, their symbol tables read with `go tool nm`, and each function
# declared in a non-test file of the root's internal/ that none of them
# holds printed with its line count, then the totals. A function listed is reached only from
# tests, or from nothing. tools/unlinked.go is a `//go:build ignore`
# program, so `go build ./...` and `make loc` do not see it.
unlinked:
	@$(GO) run tools/unlinked.go
