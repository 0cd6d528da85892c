// Micro-benchmarks of the kernels and layers under the paper's experiments.
// Regenerating the tables end to end is the bench/ module's job (workload
// paper_table3), and so is the price of the observability modes
// (grid1000_observed); use cmd/msexp for presentation-quality runs.
package repro_test

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	repro "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/nonlinear"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

const benchScale = 64

// --- Kernel micro-benchmarks.

func BenchmarkSpMV(b *testing.B) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 100000, Band: 12, PerRow: 7, Seed: 1})
	x := make([]float64, a.Rows)
	y := make([]float64, a.Rows)
	vec.Fill(x, 1)
	var c vec.Counter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x, &c)
	}
	b.SetBytes(int64(a.NNZ()) * 16)
}

// BenchmarkSparseLUKernels prices the three sparse-LU kernels on the band
// shapes the solvers actually hand them: the wide band of the Table-1-shaped
// LAN run (heavy fill), the narrow band of the async grid run (almost none)
// and a cage-like scattered pattern. ns/entry is host time per stored factor
// entry (nnz(L)+nnz(U)), the unit the triangular sweeps stream; the counted
// flops are deterministic and must not move when the kernels get faster.
func BenchmarkSparseLUKernels(b *testing.B) {
	shapes := []struct {
		name string
		a    *sparse.CSR
	}{
		{"wideband", gen.DiagDominant(gen.DiagDominantOpts{N: 1330, Band: 120, PerRow: 10, Margin: 0.002, Negative: true, Seed: 1})},
		{"narrowband", gen.DiagDominant(gen.DiagDominantOpts{N: 2500, Band: 12, PerRow: 7, Seed: 1})},
		{"cage", gen.CageLike(600, 1)},
	}
	type nnzer interface{ NNZFactors() (lnz, unz int) }
	factor := func(b *testing.B, a *sparse.CSR) (splu.Factorization, float64) {
		f, err := (&splu.SparseLU{}).Factor(a, nil)
		if err != nil {
			b.Fatal(err)
		}
		l, u := f.(nnzer).NNZFactors()
		return f, float64(l + u)
	}
	perEntry := func(b *testing.B, entries float64) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
	}
	for _, sh := range shapes {
		a := sh.a
		b.Run("factor/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			var f splu.Factorization
			var entries float64
			for i := 0; i < b.N; i++ {
				f, entries = factor(b, a)
			}
			perEntry(b, entries)
			b.ReportMetric(f.FactorFlops(), "factor-flops")
		})
		b.Run("refactor/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			f, entries := factor(b, a)
			r := f.(splu.Refactorer)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.Refactor(a, nil); err != nil {
					b.Fatal(err)
				}
			}
			perEntry(b, entries)
			b.ReportMetric(r.RefactorFlops(), "refactor-flops")
		})
		b.Run("solve/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			f, entries := factor(b, a)
			rhs := make([]float64, a.Rows)
			x := make([]float64, a.Rows)
			vec.Fill(rhs, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Solve(x, rhs, nil)
			}
			perEntry(b, entries)
			b.ReportMetric(f.SolveFlops(), "flops/solve")
		})
	}
}

func BenchmarkBandLUFactor(b *testing.B) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 5000, Band: 30, PerRow: 12, Seed: 2})
	var c vec.Counter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (splu.BandSolver{}).Factor(a, &c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultisplittingSync measures a complete synchronous distributed
// solve on a simulated 4-host LAN (simulation overhead included).
func BenchmarkMultisplittingSync(b *testing.B) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 20000, Band: 12, PerRow: 7, Seed: 3})
	rhs, _ := gen.RHSForSolution(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plt := repro.Cluster1(4, repro.MemUnlimited)
		if _, err := repro.Solve(plt.Platform, plt.Hosts, a, rhs, repro.Options{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultisplittingAsync is the asynchronous counterpart on the
// two-site cluster3 platform.
func BenchmarkMultisplittingAsync(b *testing.B) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 20000, Band: 12, PerRow: 7, Seed: 3})
	rhs, _ := gen.RHSForSolution(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plt := repro.Cluster3(repro.MemUnlimited)
		if _, err := repro.Solve(plt.Platform, plt.Hosts, a, rhs, repro.Options{Tol: 1e-8, Async: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedLU measures the baseline distributed direct solve.
func BenchmarkDistributedLU(b *testing.B) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 20000, Band: 12, PerRow: 7, Seed: 3})
	rhs, _ := gen.RHSForSolution(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plt := repro.Cluster1(4, repro.MemUnlimited)
		if _, err := repro.DSLUSolve(plt.Platform, plt.Hosts, a, rhs, dsluOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWorkers measures real wall-clock scaling of the simulation
// itself: the same 8-band multisplitting solve with the per-iteration
// compute segments executed by 1, 2 and 4 worker threads. The virtual
// result (trace, solution, iteration counts) is identical for every worker
// count; only the host-machine time changes.
func BenchmarkEngineWorkers(b *testing.B) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 20000, Band: 120, PerRow: 10, Margin: 0.002, Negative: true, Seed: 100})
	rhs, _ := gen.RHSForSolution(a)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plt := repro.Cluster1(8, repro.MemUnlimited)
				e := vgrid.NewEngine(plt.Platform)
				e.SetWorkers(workers)
				pend, err := core.Launch(e, plt.Hosts, a, rhs, core.Options{Tol: 1e-8, Overlap: 40})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
				pend.Finish()
				if !pend.Result().Converged {
					b.Fatal("did not converge")
				}
			}
		})
	}
}

// --- Refactorization benchmarks (make bench-json → BENCH_refactor.json).

// newtonProblem builds the semilinear benchmark system A·x + x³ = b on a
// narrow-band sparse matrix (the low-fill regime where refactorization's
// symbolic savings are largest).
func newtonProblem(n int) *nonlinear.Problem {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: n, Band: 8, PerRow: 3, Margin: 0.1, Negative: true, Seed: 21})
	xtrue := make([]float64, n)
	for i := range xtrue {
		xtrue[i] = 0.5 + 0.4*float64(i%7)/7
	}
	rhs := make([]float64, n)
	var c vec.Counter
	a.MulVec(rhs, xtrue, &c)
	for i := range rhs {
		rhs[i] += xtrue[i] * xtrue[i] * xtrue[i]
	}
	return &nonlinear.Problem{
		A: a,
		Phi: nonlinear.Diagonal{
			Phi:  func(_ int, v float64) float64 { return v * v * v },
			DPhi: func(_ int, v float64) float64 { return 3 * v * v },
		},
		B: rhs,
	}
}

// BenchmarkNewtonRefactor runs a full multi-step Newton-multisplitting solve
// with persistent solver sessions (sub-benchmark "refactor") against the
// per-step factorization baseline ("factor-each-step"), reporting the
// deterministic total factorization flops per solve as factor-flops.
func BenchmarkNewtonRefactor(b *testing.B) {
	p := newtonProblem(2000)
	solver := &splu.SparseLU{PivotTol: 0.1}
	for _, tc := range []struct {
		name       string
		noRefactor bool
	}{
		{"refactor", false},
		{"factor-each-step", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var flops float64
			var c vec.Counter
			for i := 0; i < b.N; i++ {
				res, err := nonlinear.SolveSequential(p, solver, nonlinear.Options{
					NewtonTol:  1e-12,
					Bands:      4,
					NoRefactor: tc.noRefactor,
				}, &c)
				if err != nil {
					b.Fatal(err)
				}
				flops = res.FactorFlops
			}
			b.ReportMetric(flops, "factor-flops")
		})
	}
}

// BenchmarkSessionIterate measures the steady state of a persistent
// sequential session: values refreshed through the frozen maps, numeric
// refactorization, and the full fixed-point iteration sweep. The headline
// number is allocs/op, which must be 0.
func BenchmarkSessionIterate(b *testing.B) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 2000, Band: 12, PerRow: 5, Margin: 0.1, Negative: true, Seed: 22})
	rhs, _ := gen.RHSForSolution(a)
	d, err := core.NewDecomposition(a.Rows, 4, 8, core.WeightOwner)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := core.NewSeqSession(a, d, &splu.SparseLU{PivotTol: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	var c vec.Counter
	if _, err := sess.Resolve(nil, rhs, 1e-10, 100000, &c); err != nil {
		b.Fatal(err)
	}
	v := make([]float64, a.NNZ())
	copy(v, a.Val)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Resolve(v, rhs, 1e-10, 100000, &c); err != nil {
			b.Fatal(err)
		}
	}
}

// phaseBreakdown aggregates an observed run into the per-phase numbers the
// benchjson breakdown fields carry: factorization and refactorization flops,
// wire bytes moved, and the share of host time spent blocked in receives.
func phaseBreakdown(rec *obs.Recorder) (factor, refactor, bytesMoved, waitShare float64) {
	var wait, busy float64
	for _, s := range rec.Spans() {
		switch s.Cat {
		case obs.CatFact:
			factor += s.Flops
		case obs.CatRefact:
			refactor += s.Flops
		case obs.CatNet:
			bytesMoved += float64(s.Bytes)
		}
		switch s.Cat {
		case obs.CatCompute, obs.CatSend, obs.CatWait, obs.CatSleep:
			busy += s.End - s.Start
			if s.Cat == obs.CatWait {
				wait += s.End - s.Start
			}
		}
	}
	if busy > 0 {
		waitShare = wait / busy
	}
	return factor, refactor, bytesMoved, waitShare
}

// BenchmarkSolverPhases runs one persistent-session solve pair — a full
// factorization, then a numeric refactorization through the frozen pattern —
// with the observability layer attached, and reports the per-phase breakdown
// benchjson lifts into its breakdown fields (deterministic virtual-clock
// numbers, so they double as a regression baseline).
func BenchmarkSolverPhases(b *testing.B) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 4000, Band: 12, PerRow: 5, Margin: 0.1, Negative: true, Seed: 22})
	rhs, _ := gen.RHSForSolution(a)
	newPlat := func() (*vgrid.Platform, []*vgrid.Host) {
		plt := repro.Cluster1(4, repro.MemUnlimited)
		return plt.Platform, plt.Hosts
	}
	v := make([]float64, a.NNZ())
	copy(v, a.Val)
	var factor, refactor, bytesMoved, waitShare float64
	for i := 0; i < b.N; i++ {
		sess, err := core.NewSession(newPlat, a, core.Options{Tol: 1e-8, Overlap: 10})
		if err != nil {
			b.Fatal(err)
		}
		// One recorder on both Resolves' engines: the spans accumulate, each
		// Resolve on its own virtual timeline starting at zero.
		rec := &obs.Recorder{}
		for _, vals := range [][]float64{nil, v} {
			pl, hosts := newPlat()
			e := vgrid.NewEngine(pl)
			e.Observe(rec)
			pend, err := sess.Launch(e, hosts, vals, rhs)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
			pend.Finish()
			if !pend.Result().Converged {
				b.Fatal("no convergence")
			}
		}
		factor, refactor, bytesMoved, waitShare = phaseBreakdown(rec)
	}
	b.ReportMetric(factor, "factor-flops")
	b.ReportMetric(refactor, "refactor-flops")
	b.ReportMetric(bytesMoved, "bytes-moved")
	b.ReportMetric(waitShare, "wait-share")
}

// BenchmarkTopologyExchange solves on the two-site cluster3 grid with the
// gateway-aggregated exchange and topology-aware collectives, and reports
// the intra-/inter-cluster traffic split benchjson lifts into its breakdown
// fields (deterministic virtual-clock numbers — the inter-cluster ones are
// the WAN budget the gateway is there to shrink).
func BenchmarkTopologyExchange(b *testing.B) {
	a := gen.CageLike(11397/benchScale, 1030)
	rhs, _ := gen.RHSForSolution(a)
	var res *core.Result
	for i := 0; i < b.N; i++ {
		plt := repro.Cluster3(repro.MemUnlimited)
		r, err := core.Solve(plt.Platform, plt.Hosts, a, rhs, core.Options{
			TopoCollectives: true, Gateway: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Converged {
			b.Fatal("no convergence")
		}
		res = r
	}
	b.ReportMetric(float64(res.IntraBytes), "intra-bytes")
	b.ReportMetric(float64(res.InterBytes), "inter-bytes")
	b.ReportMetric(float64(res.IntraMsgs), "intra-msgs")
	b.ReportMetric(float64(res.InterMsgs), "inter-msgs")
}

// benchRing runs one ring configuration b.N times and reports the
// machine-independent counts of the last run next to the mean host
// milliseconds spent simulating (platform construction excluded).
func benchRing(b *testing.B, spec experiments.RingSpec) {
	var res experiments.RingResult
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		r, err := experiments.RingRun(spec)
		if err != nil {
			b.Fatal(err)
		}
		res = r
		wall += r.Wall
	}
	b.ReportMetric(float64(res.Events), "sim-events")
	b.ReportMetric(float64(wall)/float64(b.N)/1e6, "sim-wall-clock")
	b.ReportMetric(float64(res.Commits), "sim-commits")
	b.ReportMetric(float64(res.Syncs), "sim-syncs")
}

// BenchmarkClusterGrid times the event core itself on generated grids: a
// ring workload of ~100k scheduler commit points on a 1000-host/100-cluster
// synthetic platform (plus a 256-host point) under the single-lane indexed
// scheduler. sim-events is the commit-point count and sim-wall-clock the
// host milliseconds spent simulating.
func BenchmarkClusterGrid(b *testing.B) {
	for _, tc := range []struct {
		name            string
		hosts, clusters int
	}{
		{"indexed/hosts=256", 256, 16},
		{"indexed/hosts=1000", 1000, 100},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchRing(b, experiments.RingSpec{Hosts: tc.hosts, Clusters: tc.clusters, Events: 100000, Lanes: 1})
		})
	}
}

// BenchmarkEventHandoff isolates the per-event scheduler handoff cost (make
// bench-eventshard → BENCH_eventshard.json): the 1000-host/100-cluster
// 100k-event ring under the single-lane indexed scheduler — every commit a
// resume/yield handoff through the central scheduler goroutine — and under
// the sharded event core at one lane per cluster, where intra-cluster
// commits stay lane-local and only window barriers and serialized WAN
// turns synchronize. sim-commits is the committed-slice count (identical
// for both), sim-syncs the cross-goroutine synchronization count the
// scheduler actually paid — the handoff reduction sharding buys, which is
// machine-independent; the sim-wall-clock pair additionally shows the
// speedup on a runner with at least one core per busy lane.
func BenchmarkEventHandoff(b *testing.B) {
	for _, tc := range []struct {
		name  string
		lanes int
	}{
		{"single-lane/hosts=1000", 1},
		{"sharded/hosts=1000", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchRing(b, experiments.RingSpec{Hosts: 1000, Clusters: 100, Events: 100000, Lanes: tc.lanes})
		})
	}
}

// recordRing runs the 1000-host/100-cluster ring of the event-core studies (34
// rounds, 102 000 events) with a retaining recorder and returns it with the
// run's virtual makespan: the span population the export benchmarks work on.
func recordRing(b *testing.B) (*obs.Recorder, float64) {
	b.Helper()
	rec := &obs.Recorder{}
	res, err := experiments.RingRun(experiments.RingSpec{
		Hosts: 1000, Clusters: 100, Events: 100000, Lanes: 1,
		Attach: func(e *vgrid.Engine) { e.Observe(rec) },
	})
	if err != nil {
		b.Fatal(err)
	}
	return rec, res.VirtualTime
}

// BenchmarkObsExport measures the recorder layer alone — no simulation in
// the timed loop — on the ring's 136 000 spans, one sub-benchmark per export
// stage, each reporting its cost per span (ns/span, B/span, allocs/span):
//
//	encode-trace   batch Perfetto export of the already-sorted spans
//	write-windows  windows.json from computed windowed metrics
//	write-metrics  metrics.json from computed aggregate metrics
//	spans-sorted   building the sorted span view after a new emission
//	stream-emit    the streaming path: ring push, watermark flush, encode
func BenchmarkObsExport(b *testing.B) {
	rec, vt := recordRing(b)
	spans := rec.Spans()
	wm := obs.ComputeWindows(rec, 0.05, vt, nil)
	m := obs.ComputeMetrics(rec, vt)
	for _, bc := range []struct {
		name string
		op   func() error
	}{
		{"encode-trace", func() error { return obs.WriteTraceJSON(io.Discard, rec) }},
		{"write-windows", func() error { return wm.WriteJSON(io.Discard) }},
		{"write-metrics", func() error { return m.WriteJSON(io.Discard) }},
		{"spans-sorted", func() error {
			// A zero-length mark at the end of the run: drops the cached view
			// without disturbing the population.
			rec.Span(obs.Span{Track: "ring0", Cat: obs.CatMark, Name: "mark", Start: vt, End: vt})
			rec.Spans()
			return nil
		}},
		{"stream-emit", func() error {
			// Replayed in start order with the watermark at each start, every
			// later span ends past it, as the engine guarantees; the ring
			// then holds the spans in flight, about one per host.
			sr := &obs.Recorder{}
			st := obs.NewStreamer(io.Discard, 0)
			sr.SetStream(st)
			for i := range spans {
				sr.Span(spans[i])
				sr.Advance(spans[i].Start)
			}
			return st.Close()
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.op(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * float64(len(spans))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/span")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/span")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/span")
		})
	}
}

// BenchmarkTwoStage measures the two-stage multisplitting solver on the
// wide-band workload, reporting the work split the mode is designed around:
// cheap repeated inner sweeps (inner-flops, inner-sweeps) in place of the
// exact band factorization the stationary solver pays up front
// (factor-flops).
func BenchmarkTwoStage(b *testing.B) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 3000, Band: 220, PerRow: 10, Negative: true, Seed: 220})
	rhs, _ := gen.RHSForSolution(a)
	for _, bc := range []struct {
		name  string
		async bool
	}{{"sync", false}, {"async", true}} {
		b.Run(bc.name, func(b *testing.B) {
			var sweeps, innerFlops, factFlops float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plt := repro.Cluster3(repro.MemUnlimited)
				res, err := repro.Solve(plt.Platform, plt.Hosts, a, rhs, repro.Options{
					Tol:      1e-8,
					Async:    bc.async,
					TwoStage: core.TwoStage{InnerIters: 4},
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.InnerSweeps == 0 {
					b.Fatal("no inner sweeps recorded")
				}
				sweeps += float64(res.InnerSweeps)
				innerFlops += res.InnerFlops
				factFlops += res.FactorFlops
			}
			n := float64(b.N)
			b.ReportMetric(sweeps/n, "inner-sweeps")
			b.ReportMetric(innerFlops/n, "inner-flops")
			b.ReportMetric(factFlops/n, "factor-flops")
		})
	}
}

// BenchmarkAdaptive measures the live-decomposition solve on cluster2 with
// one host persistently slowed, reporting what the controller costs on top
// of the static solve: the number of applied resplits (resplit-count), the
// virtual flops charged to the transitions — safety checks, sparsity scans
// and refactorizations (resplit-flops) — and the total factorization work
// including those refactorizations (factor-flops).
func BenchmarkAdaptive(b *testing.B) {
	a := experiments.AdaptiveMatrix(experiments.Config{Scale: 32})
	rhs, _ := gen.RHSForSolution(a)
	var resplits, resplitFlops, factFlops float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plt := repro.Cluster2(repro.MemUnlimited)
		e := vgrid.NewEngine(plt.Platform)
		e.SetFaultPlan(vgrid.NewFaultPlan(1).
			DegradeHost("c2-07", 0, math.Inf(1), 8))
		pend, err := core.Launch(e, plt.Hosts, a, rhs, repro.Options{
			Overlap: 8, Balance: true, Tol: 1e-10,
			Adapt: true, AdaptInterval: 5, AdaptHysteresis: 0.05,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
		pend.Finish()
		res := pend.Result()
		if !res.Converged {
			b.Fatal("adaptive run diverged")
		}
		if res.Resplits == 0 {
			b.Fatal("no resplit under a persistent slowdown")
		}
		resplits += float64(res.Resplits)
		resplitFlops += res.ResplitFlops
		factFlops += res.FactorFlops
	}
	n := float64(b.N)
	b.ReportMetric(resplits/n, "resplit-count")
	b.ReportMetric(resplitFlops/n, "resplit-flops")
	b.ReportMetric(factFlops/n, "factor-flops")
}
