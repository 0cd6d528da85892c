GO ?= go

.PHONY: all build test test-386 test-bench race vet fmt bench lint-docs lint-fma verify

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The root module's tests on a second architecture: 386 has 32-bit int,
# pointers and struct layouts, so a test whose figures hold only for amd64's
# sizes fails here. An amd64 host runs the 386 test binaries natively.
test-386:
	GOARCH=386 $(GO) test ./...

# The repository benchmark is a module of its own (bench/go.mod), so the root
# module's build and tests do not compile it: a refactor of internal/ can
# break it with everything else green. Part of verify.
test-bench:
	cd bench && $(GO) test ./...

# The worker pool runs compute segments on real OS threads, so the race
# detector is part of the verified loop. The first line runs every package
# once; its timeout is for internal/experiments and cmd/msexp, which run the
# paper tables and compete for the cores with the rest. Each later line runs
# one package's determinism and oracle tests a second time:
#   obs: exports byte-identical for 1 and N workers, batch and streamed; the
#     streamer's encoder goroutine and the chunked batch encoders against the
#     sequential writer (write errors, non-finite spans, no goroutine left);
#     the encoder against encoding/json and its number shortcuts against
#     strconv; the allocation budget; windows and export order against their
#     references.
#   core: the gateway's bytes and recorded digests, two-stage, adaptive and
#     multiband runs across lanes and workers, the option matrices, every
#     idle step recomputed.
#   mp: the relay's rounds and pump. splu, dense, sparse: the kernels against
#     their reference loops (splu also its fuzz seeds and factor budget).
#   experiments: the job runner — Table 3's budget from the row run, gates,
#     the first ready job first, progress lines in list order when jobs end
#     out of order, a rejected job's list. This is the progress stream's
#     second race run: cmd/msexp checks the stream once, on its golden run.
#   vgrid: the scheduler index against the scan, sharded against one lane,
#     compute overlap, coroutine stop and panic, inline segments, dispatch
#     allocations, yield ties, the lookahead's routes.
race:
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -count=2 -run 'TestObsDeterministicAcrossWorkers|TestWindowedMetricsDeterministic|TestStreamedTraceByteIdentical|TestExportStreamedMetricsMatchBatch|TestTraceEncodingMatchesEncodingJSON|FuzzAppendFloat|TestObsExportAllocBudget|TestWindowsMatchReference|TestStreamerBatchBoundaries|TestStreamerLatchesWriteError|TestStreamerLeavesNoGoroutine|TestNonFiniteSpanFailsExport|TestStreamerGuards|TestChunkedExportsMatchSequential|TestExportOrderMatchesSort' ./internal/obs
	$(GO) test -race -count=2 -run 'TestGatewaySyncByteIdentical|TestGatewayWorkersDeterministic|TestGatewayRecordGolden|TestTwoStageDeterministicAcrossLanesAndWorkers|TestAdaptiveDeterministicAcrossLanesAndWorkers|TestMultibandDeterministicAcrossLanesAndWorkers|TestOptionMatrix|TestSessionOptionMatrix|TestIdleStepsExact' ./internal/core
	$(GO) test -race -count=2 -run 'TestRelayRound|TestRelayPumpKeepsNewest' ./internal/mp
	$(GO) test -race -count=2 -run 'TestSparseLUMatchesReference|TestPrunedReachMatchesUnpruned|FuzzSparseLUMatchesReference|TestSparseLUFactorAllocBudget' ./internal/splu
	$(GO) test -race -count=2 -run 'TestBandLUMatchesReference' ./internal/dense
	$(GO) test -race -count=2 -run 'TestMulVecMatchesReference' ./internal/sparse
	$(GO) test -race -count=2 -run 'TestTable3BudgetFromRowRun|TestRejectedOptionsFailTheExperiment|TestSolveAll' ./internal/experiments
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

verify: build vet fmt lint-docs lint-fma test test-386 test-bench race
