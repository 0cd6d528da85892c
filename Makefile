GO ?= go

.PHONY: all build test test-bench tables-twice race vet bench bench-json bench-json-smoke bench-eventshard bench-eventshard-smoke bench-twostage bench-twostage-smoke bench-adapt bench-adapt-smoke bench-diff-fixture lint-docs verify

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repository benchmark is a module of its own (bench/go.mod), so the root
# module's build and tests do not compile it: a refactor of internal/ can
# break it with everything else green. Part of verify.
test-bench:
	cd bench && $(GO) test ./...

# The worker pool runs compute segments on real OS threads, so the race
# detector is part of the verified loop, not an optional extra. The focused
# second runs pin the observability determinism contract (byte-identical
# exports for 1 vs N workers, batch and streamed) and the communication-plan
# equivalence contract (byte-identical iterates and traces for the gateway exchange)
# under the race detector, together with the export encoder's differential
# test against encoding/json and its allocation budget, the sparse LU's
# bit-for-bit comparison with its pre-rework reference loops, and the proof
# that an idle asynchronous step charged is a step computed (every skipped
# step recomputed on the side, 1 vs 4 workers), and the session option matrix
# (every Resolve of a NoRefactor session is a fresh Solve bit for bit, kept
# rank states crossing engines and worker pools). The explicit
# timeout is for internal/experiments: ~8 min alone under the race detector
# on a 2-vCPU host, past go test's 10 min default once the other packages
# compete for the cores.
race:
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -count=2 -run 'TestObsDeterministicAcrossWorkers|TestWindowedMetricsDeterministic|TestStreamedTraceByteIdentical|TestExportStreamedMetricsMatchBatch|TestTraceEncodingMatchesEncodingJSON|TestObsExportAllocBudget' ./internal/obs
	$(GO) test -race -count=2 -run 'TestGatewaySyncByteIdentical|TestGatewayWorkersDeterministic|TestTwoStageDeterministicAcrossLanesAndWorkers|TestAdaptiveDeterministicAcrossLanesAndWorkers|TestMultibandDeterministicAcrossLanesAndWorkers|TestOptionMatrix|TestSessionOptionMatrix|TestIdleStepsExact' ./internal/core
	$(GO) test -race -count=2 -run 'TestSparseLUMatchesReference' ./internal/splu
	$(GO) test -race -count=2 -run 'TestSchedulerIndexMatchesScanUnderFaults|TestSyntheticTraceByteIdenticalAcrossWorkers|TestDeferredLowerBoundResolvesLate|TestShardedMatchesSingleLaneUnderFaults|TestShardedRejectsSharedLinks' ./internal/vgrid

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable baseline of the refactorization economy: the sparse-LU
# kernel prices (factor/refactor/solve on the wide-band, narrow-band and cage
# shapes: ns per stored factor entry, B/op, counted flops), the Newton
# factor-vs-refactor comparison (factor-flops metric), the engine worker
# scaling, the observed per-phase solver breakdown (factor/refactor flops,
# bytes moved, wait share), and the cluster traffic split of the
# topology-aware exchange (intra/inter bytes and messages), as JSON.
bench-json:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkSparseLUKernels|BenchmarkNewtonRefactor|BenchmarkSessionIterate|BenchmarkEngineWorkers|BenchmarkSolverPhases|BenchmarkTopologyExchange' -o BENCH_refactor.json

# One-iteration smoke of the same pipeline, part of verify: proves the
# benchmarks still run and the parser still understands their output.
bench-json-smoke:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkSparseLUKernels|BenchmarkNewtonRefactor|BenchmarkSessionIterate|BenchmarkSolverPhases|BenchmarkTopologyExchange' -benchtime 1x -o BENCH_refactor.json

# Machine-readable baseline of the event core: the 256- and 1000-host
# synthetic-grid rings under the single-lane indexed scheduler, and the
# 1000-host/100-cluster 100k-event ring under per-cluster lanes, recording
# the committed-slice count and the cross-goroutine synchronization count
# (sim-commits + sim-syncs — the machine-independent handoff reduction)
# alongside sim-events and sim-wall-clock. The topology-exchange allocation
# budget (allocs/op) is part of bench-json.
bench-eventshard:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkClusterGrid|BenchmarkEventHandoff' -benchtime 5x -o BENCH_eventshard.json

# One-iteration smoke of the event-core pipeline, part of verify.
bench-eventshard-smoke:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkClusterGrid|BenchmarkEventHandoff' -benchtime 1x -o BENCH_eventshard.json

# Machine-readable baseline of the two-stage solver: the sync and async
# wide-band runs with their work split (inner-flops + inner-sweeps for the
# repeated relaxation sweeps, factor-flops for the narrow band
# preconditioner factorizations they replace the exact LU with).
bench-twostage:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkTwoStage' -benchtime 5x -o BENCH_twostage.json

# One-iteration smoke of the two-stage pipeline, part of verify.
bench-twostage-smoke:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkTwoStage' -benchtime 1x -o BENCH_twostage.json

# Machine-readable baseline of the live decomposition: the cluster2 solve
# with one host persistently slowed and the controller on, recording what
# the adaptivity costs (resplit-count, resplit-flops — the safety checks,
# sparsity scans and refactorizations charged to the transitions) next to
# the total factorization work (factor-flops).
bench-adapt:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkAdaptive' -benchtime 5x -o BENCH_adapt.json

# One-iteration smoke of the adaptive pipeline, part of verify.
bench-adapt-smoke:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkAdaptive' -benchtime 1x -o BENCH_adapt.json

# The regression gate must actually gate: benchjson -diff exits nonzero on
# the checked-in fixture pair with a +50% injected ns/op regression, and
# accepts the clean pair. Part of verify.
bench-diff-fixture:
	@if $(GO) run ./cmd/benchjson -diff -old cmd/benchjson/testdata/bench_base.json -new cmd/benchjson/testdata/bench_regress.json -max-regress 10 >/dev/null 2>&1; then \
		echo "bench-diff-fixture: injected regression NOT flagged"; exit 1; fi
	@$(GO) run ./cmd/benchjson -diff -old cmd/benchjson/testdata/bench_base.json -new cmd/benchjson/testdata/bench_base.json -max-regress 10 >/dev/null
	@echo "bench-diff-fixture: gate fires on regression, passes clean"

# Fails on any exported identifier of the simulator, the solver core, the
# observability layer, the messaging/context plumbing or the platform layer
# that lacks a doc comment.
lint-docs:
	$(GO) run ./cmd/lintdocs internal/vgrid internal/core internal/obs internal/mp internal/simctx internal/plan internal/cluster internal/iterative internal/splu internal/adapt internal/experiments cmd/msprof cmd/benchjson

# The paper tables are a function of their inputs: one binary run twice must
# print the same bytes. (order.RCM used to break its ties by map iteration, and
# the distributed-LU column of the scale-32 pair moved in its last digit from
# run to run.) Part of verify.
tables-twice:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && $(GO) build -o "$$d/msexp" ./cmd/msexp && \
	for args in "-scale 64 table1 table2 table3 table4" "-scale 32 table2 table3"; do \
		"$$d/msexp" -quiet -csv $$args > "$$d/a.csv" && "$$d/msexp" -quiet -csv $$args > "$$d/b.csv" && \
		cmp "$$d/a.csv" "$$d/b.csv" || { echo "tables-twice: msexp $$args differs run to run"; exit 1; }; \
	done && echo "tables-twice: same bytes twice"

verify: build vet lint-docs test test-bench tables-twice race bench-json-smoke bench-eventshard-smoke bench-twostage-smoke bench-adapt-smoke bench-diff-fixture
