GO ?= go

.PHONY: all build test race chaos soak-feed bench bench-parallel bench-json bench-compare bench-registry bench-wire bench-fragment bench-cluster cluster-smoke trace-smoke fuzz clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector — the parallel invalidation pipeline
# and the sharded web cache must stay race-free. The cycle-loop, help-first
# join, poisoned-fill and balancer relay tests assert on timing and
# interleaving, a feed-mode site's freshness rests on the mapper's
# synchronous log reads, and the wire client's connection state machine
# (drop and redial with backoff, statement re-prepare, stream resubscribe)
# and the eject-stream consumer's cursor/epoch state machine are
# timing-driven too, as is the wakeup property every feed.Log shares, so
# these run three more times: a flaky one should show up here, not on
# someone's laptop.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=3 -run 'TestRunLoop|TestCycleHelpFirstJoin|TestPoisonedFill|TestSiteFeed|TestMapper' . ./internal/invalidator/ ./internal/webcache/ ./internal/sniffer/
	$(GO) test -race -count=3 ./internal/balancer/ ./internal/wire/ ./internal/cluster/ ./internal/feed/

# Fault-tolerance suite under the race detector: the chaos integration
# tests (full pipeline under injected faults), the invalidator's recovery
# regression tests, and the faults/wire fault-path tests.
chaos:
	$(GO) test -race ./internal/faults/ ./internal/backoff/
	$(GO) test -race -run 'Chaos|Recover|Truncation|Pending|Breaker|Deadline|Backoff' . ./internal/wire/ ./internal/invalidator/

# Event-driven endurance run under the race detector: SOAK_SECONDS of
# sustained stream-driven invalidation on a live site, then a goroutine-leak
# check against the pre-site baseline. Fails when the median commit-to-eject
# staleness over the soak is 10 ms or more.
SOAK_SECONDS ?= 30
soak-feed:
	SOAK_FEED=1 SOAK_SECONDS=$(SOAK_SECONDS) $(GO) test -race -run TestSoakFeed -v -timeout 10m .

bench:
	$(GO) test -run xxx -bench . -benchmem .

# Parallel-scaling benchmarks: invalidator worker sweep + sharded cache.
bench-parallel:
	$(GO) test -run xxx -bench 'BenchmarkInvalidatorCycleParallel|BenchmarkWebCacheSharded' -benchtime 2s .

# Re-measure the invalidator scaling sweep and refresh BENCH_invalidator.json,
# embedding the live pipeline's staleness/hit-ratio snapshot under "obs".
# BenchmarkCommitToEject is the freshness acceptance check: the feed
# sub-benchmark's p95-staleness-ms must come in below the 100ms cycle
# interval that bounds the interval sub-benchmark.
bench-json:
	$(GO) run ./cmd/experiment -staleness 30 -obs-out .obs-staleness.json
	$(GO) test -run xxx -bench 'BenchmarkInvalidatorCycleParallel|BenchmarkWebCacheSharded|BenchmarkInvalidatorCycle$$|BenchmarkWebCache$$|BenchmarkCommitToEject' -benchtime 2s . \
		| $(GO) run ./cmd/benchjson -obs .obs-staleness.json -out BENCH_invalidator.json
	rm -f .obs-staleness.json

# Prepared-vs-text poll path comparison, merged into BENCH_invalidator.json
# alongside the scaling sweep. The prepared sub-benchmark's stmt-hit-ratio
# metric is the acceptance check that polling re-parses nothing.
bench-compare:
	$(GO) test -run xxx -bench 'BenchmarkPollPath|BenchmarkInvalidatorCycleParallel|BenchmarkCommitToEject' -benchtime 2s . \
		| $(GO) run ./cmd/benchjson -merge -out BENCH_invalidator.json

# Predicate-index scaling sweep: per-update analysis cost at 10k/100k/1M
# registered instances, index probe vs registry scan, merged into
# BENCH_invalidator.json next to the other sweeps. -benchtime 5x keeps the
# 1M-instance scan cells tractable; the acceptance check is mode=index
# beating mode=scan by >=10x at insts=1000000. The registry enumeration
# micro-benchmark rides along (its allocs/op contract is asserted by
# TestTypesForTableIntoZeroAlloc / TestInstancesOfIntoZeroAlloc).
bench-registry:
	$(GO) test -run xxx -bench 'BenchmarkRegistryScale|BenchmarkRegistryEnumeration' -benchtime 5x -benchmem -timeout 60m . ./internal/invalidator/ \
		| $(GO) run ./cmd/benchjson -merge -out BENCH_invalidator.json

# Wire codec and poll-index measurements, merged into BENCH_invalidator.json:
# BenchmarkWireLogSince times the 256-record LogSince roundtrip,
# BenchmarkHighFanoutPoll mode=indexed must beat mode=scan at 100k rows, and
# BenchmarkCommitToEject records the feed's p95-staleness-ms.
bench-wire:
	$(GO) test -run xxx -bench 'BenchmarkWireLogSince|BenchmarkCommitToEject' -benchtime 2s . ./internal/wire/ \
		| $(GO) run ./cmd/benchjson -merge -out BENCH_invalidator.json
	$(GO) test -run xxx -bench BenchmarkHighFanoutPoll -benchtime 2s ./internal/engine/ \
		| $(GO) run ./cmd/benchjson -merge -out BENCH_invalidator.json

# Fragment-level caching benchmarks, merged into BENCH_invalidator.json:
# the edge-assembly splice cost at 1/4/16 fragments, and the page-vs-fragment
# hit ratio on the personalized home page (12 users x 5 categories, cold-start
# sweep per iteration). The acceptance check is mode=fragment's hit-ratio
# beating mode=page's, mirroring TestFragmentHitRatioBeatsPageMode.
bench-fragment:
	$(GO) test -run xxx -bench 'BenchmarkFragmentAssembly|BenchmarkFragmentHitRatio' -benchtime 2s . \
		| $(GO) run ./cmd/benchjson -merge -out BENCH_invalidator.json

# Distributed cache tier smoke under the race detector: the cluster
# package's ring/stream/manager suites, the webcache forwarding and
# balancer hash-policy tests, and the top-level 3-node in-process cluster
# tests — equivalence vs single-node, the node-drop/rejoin chaos case, and
# the manager's flash-crowd replication.
cluster-smoke:
	$(GO) test -race -short ./internal/cluster/
	$(GO) test -race -short -run 'Cluster|Reprobe|ConsistentHash|Resubscribe' -count=1 . ./internal/webcache/ ./internal/balancer/ ./internal/feed/

# Flash-crowd comparison on the 3-node cluster behind a round-robin front
# tier, merged into BENCH_invalidator.json: static single-owner placement
# vs the adaptive shard manager replicating the hot slot. Each mode
# reports median-of-runs p50/p95 latency, the forwarded-request fraction
# (the structural cost replication halves: 2/3 -> 1/3), per-node hit
# ratios, and the manager's replica-migration count. The acceptance check
# is mode=adaptive's p95-ms (and forwarded-per-req) coming in below
# mode=static's.
bench-cluster:
	$(GO) test -run xxx -bench BenchmarkClusterFlashCrowd -benchtime 7x -timeout 30m . \
		| $(GO) run ./cmd/benchjson -merge -out BENCH_invalidator.json

# End-to-end tracing smoke under the race detector: the trace package's own
# suite, then the pipeline assertions — every committed update on a live
# feed-mode site must yield a complete engine.commit→…→webcache.eject span
# chain, a forced-sample chaos trace must carry the retry/breaker story
# behind the staleness exemplar, and the eject stream must carry contexts to
# the consuming cache's tracer.
trace-smoke:
	$(GO) test -race ./internal/trace/
	$(GO) test -race -run 'TestTraceSmoke|TestTraceChaosExemplar|TestStreamEjectorPropagatesTraceContexts' -v . ./internal/invalidator/

# Coverage-guided fuzzing: the SQL parser/printer round-trip, the wire
# codec (bit-exact encode/decode identity, and no panic on arbitrary bytes)
# and the HTTP head parser (whatever it accepts, net/http's ReadRequest
# accepts with the same method, Host, route key and framing). FUZZTIME
# bounds each target (CI smoke uses 30s; leave it running longer locally).
# `go test -fuzz` takes one target per invocation, hence three lines.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/sqlparser/ -fuzz FuzzParseRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -fuzz FuzzBinaryCodecRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/httpx/ -fuzz FuzzReadHead -fuzztime $(FUZZTIME)

clean:
	$(GO) clean ./...
