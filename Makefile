GO ?= go

.PHONY: all build test test-bench race vet fmt bench lint-docs lint-fma verify

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
# exports for 1 vs N workers, batch and streamed, and the streamer's encoder
# goroutine: the sequential writer's bytes at every batch boundary, a write
# error or a non-finite span cutting the document where the sequential
# writer cut it, no goroutine left behind), the batch exports' chunk
# encoders (the sequential loops' bytes and Write calls at GOMAXPROCS 1 and
# 2, a failure cutting the document where they cut it, no goroutine left
# behind) and the export index's split sort, and the communication-plan
# equivalence contract (byte-identical iterates and traces for the gateway exchange,
# and the relayed exchange's records against the digests recorded before the
# relay moved into plan and mp, with mp's own round and pump tests)
# under the race detector, together with the export encoder's differential
# test against encoding/json, its number shortcuts (the integral path and
# the per-writer memo) against strconv over their fuzz seeds, and its
# allocation budget (objects and, for the batch trace and windows and a
# sparse window row, bytes), the windowed rows'
# and the critical path's bit-for-bit comparison with the map-based
# accumulator and the walk over the sorted span copy they replaced, the
# sparse LU's, the band LU's and the two-row SpMV's bit-for-bit comparisons
# with their pre-rework reference loops (the sparse LU's also over its fuzz
# seeds, with its factor allocation budget), and the proof
# that an idle asynchronous step charged is a step computed (every skipped
# step recomputed on the side, 1 vs 4 workers), and the session option matrix
# (every Resolve of a NoRefactor session is a fresh Solve bit for bit, kept
# rank states crossing engines and worker pools). The vgrid rerun also holds
# what pins "compute segments still overlap" now that process bodies are
# coroutines of their lane, that processes tied at a deferred segment's
# dispatch instant all dispatch theirs before the first is collected, that
# Run stops every coroutine it leaves unfinished, and that segments declaring
# less than vgrid.InlineFlops run inline while a dispatched one reuses its
# process's completion channel, that a yielding process wins or loses a tie
# at the heap root by ID, and that the sharded lookahead memoizes no route. The experiments
# rerun holds the runs of a table going side by side as one job list: Table
# 3's budget still taken from the cage11 distributed run, a gated job starting
# only after its job has ended with a verified cell and never after a failed
# one, the first ready job started first, progress lines in list order when
# jobs end out of order, a rejected job failing its list with exactly the
# earlier jobs' progress lines written and no goroutine left, and the
# progress stream of msexp byte for byte the sequential one (~40 s for the
# experiments rerun, 26 s before the scheduler tests joined it). The explicit
# timeout is for internal/experiments: ~3 min alone under the race detector
# on a 2-vCPU host (175 s; 190-250 s before a row's runs went side by side),
# far more once the other packages compete for the cores.
race:
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -count=2 -run 'TestObsDeterministicAcrossWorkers|TestWindowedMetricsDeterministic|TestStreamedTraceByteIdentical|TestExportStreamedMetricsMatchBatch|TestTraceEncodingMatchesEncodingJSON|FuzzAppendFloat|TestObsExportAllocBudget|TestWindowsMatchReference|TestStreamerBatchBoundaries|TestStreamerLatchesWriteError|TestStreamerLeavesNoGoroutine|TestNonFiniteSpanFailsExport|TestStreamerGuards|TestChunkedExportsMatchSequential|TestExportOrderMatchesSort' ./internal/obs
	$(GO) test -race -count=2 -run 'TestGatewaySyncByteIdentical|TestGatewayWorkersDeterministic|TestGatewayRecordGolden|TestTwoStageDeterministicAcrossLanesAndWorkers|TestAdaptiveDeterministicAcrossLanesAndWorkers|TestMultibandDeterministicAcrossLanesAndWorkers|TestOptionMatrix|TestSessionOptionMatrix|TestIdleStepsExact' ./internal/core
	$(GO) test -race -count=2 -run 'TestRelayRound|TestRelayPumpKeepsNewest' ./internal/mp
	$(GO) test -race -count=2 -run 'TestSparseLUMatchesReference|TestPrunedReachMatchesUnpruned|FuzzSparseLUMatchesReference|TestSparseLUFactorAllocBudget' ./internal/splu
	$(GO) test -race -count=2 -run 'TestBandLUMatchesReference' ./internal/dense
	$(GO) test -race -count=2 -run 'TestMulVecMatchesReference' ./internal/sparse
	$(GO) test -race -count=2 -run 'TestTable3BudgetFromRowRun|TestRejectedOptionsFailTheExperiment|TestSolveAll' ./internal/experiments
	$(GO) test -race -count=2 -run 'TestProgressGolden' ./cmd/msexp
	$(GO) test -race -count=2 -run 'TestSchedulerIndexMatchesScanUnderFaults|TestSyntheticTraceByteIdenticalAcrossWorkers|TestDeferredLowerBoundResolvesLate|TestShardedMatchesSingleLaneUnderFaults|TestShardedRejectsSharedLinks|TestComputeFuncOverlap|TestComputeFuncConcurrencyBound|TestComputeDeferredCommitsBeforeReturn|TestDeferredFloorOverlapsTiedProcesses|TestDeferredBelowFloorFails|TestRunLeavesNoGoroutines|TestProcessPanicBecomesError|TestComputeFuncInlinesShortSegments|TestDispatchAllocs|TestYieldTieBreaksByID|TestShardedLookaheadMaterializesNoRoutes' ./internal/vgrid

vet:
	$(GO) vet ./...

# Fails on any Go file of the root module or bench/ that gofmt would rewrite
# (or cannot parse), listing the files. The benchmark's build directory is
# skipped.
fmt:
	@files=$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*')) && \
	if [ -n "$$files" ]; then echo "fmt: gofmt would rewrite:"; echo "$$files"; exit 1; fi

# The repository benchmark (BENCHMARK.json): every workload of bench/ with
# its end-to-end and per-layer metrics. Host time is measured here and
# nowhere else.
bench:
	bash bench/run.sh

# Walks every package under internal/ and cmd/ (no directory list to keep):
# fails on an exported identifier without a doc comment, and on a function or
# method of non-test code that nothing but its own declaration and its own
# package's tests names — code anywhere in the tree, examples/ and bench/
# included, counts as a caller.
lint-docs:
	$(GO) run ./cmd/lintdocs

# Packages whose every multiply-add is written float64(a*b), which the Go spec
# forbids fusing into one rounding: their results are the same bits on every
# GOARCH. Every package of the module is on it: each directory under
# internal/, and "main", the mains of cmd/ and examples/. A narrower list
# (make lint-fma FMA_CLEARED="vgrid core") shows one package's sites.
FMA_CLEARED = $(notdir $(wildcard internal/*)) main

# Cross-compiles every main of cmd/ and examples/ and bench/'s main for
# arm64, riscv64 and ppc64le, the backends that fuse x*y+z implicitly (amd64
# never does), and fails on a fused multiply-add in a function of a
# FMA_CLEARED package. bench/ is built for the internal functions only it
# links; its own main functions are measurement code and not checked. The
# toolchain cross-compiles from GOROOT: nothing is downloaded.
lint-fma:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	for arch in arm64 riscv64 ppc64le; do \
		GOARCH=$$arch $(GO) build -o "$$dir/$$arch/" ./cmd/... ./examples/... || exit 1; \
		(cd bench && GOARCH=$$arch $(GO) build -o "$$dir/$$arch/bench" .) || exit 1; \
	done && \
	re="^($$(echo $(FMA_CLEARED) | tr ' ' '\n' | sed 's,^,repro/internal/,; s,^repro/internal/main$$,main,' | paste -sd '|'))\\." && \
	for bin in "$$dir"/*/*; do \
		$(GO) tool objdump "$$bin" > "$$bin.s" || exit 1; \
		awk -v arch="$$(basename "$$(dirname "$$bin")")" -v re="$$re" -v bench="$$([ "$$(basename "$$bin")" = bench ] && echo 1)" \
			'/^TEXT/ { fn = $$2 } /\tFN?M(ADD|SUB)[DS]? / && fn ~ re && !(bench && fn ~ /^main\./) { n[fn]++ } \
			END { for (f in n) print "  " arch ": " f ", " n[f] " fused" }' "$$bin.s"; \
	done | sort -u > "$$dir/fused" && \
	if [ -s "$$dir/fused" ]; then \
		echo "lint-fma: fused multiply-adds in $(FMA_CLEARED):"; cat "$$dir/fused"; exit 1; \
	fi

verify: build vet fmt lint-docs lint-fma test test-bench race
