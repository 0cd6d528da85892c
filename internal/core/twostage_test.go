package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/iterative"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// solveLan runs one solve on a fresh homogeneous LAN.
func solveLan(t *testing.T, hosts int, mem int64, a *sparse.CSR, b []float64, o Options) (*Result, error) {
	t.Helper()
	pl, hs := lanPlatform(hosts, mem)
	return Solve(pl, hs, a, b, o)
}

// checkClose asserts two iterates agree within tol in the infinity norm.
func checkClose(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	worst := 0.0
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > worst {
			worst = d
		}
	}
	if worst > tol {
		t.Fatalf("%s: iterates differ by %g (tol %g)", label, worst, tol)
	}
}

// TestTwoStageMatchesExactPoisson pins the two-stage mode against the
// stationary (exact inner solve) method on the Poisson M-matrix, under both
// exchange policies: same limit, tolerance-bounded iterate gap.
func TestTwoStageMatchesExactPoisson(t *testing.T) {
	a := gen.Poisson2D(16, 16)
	b, xtrue := gen.RHSForSolution(a)
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			base := Options{Tol: 1e-9, Overlap: 8, Async: async}
			exact, err := solveLan(t, 4, 0, a, b, base)
			if err != nil {
				t.Fatal(err)
			}
			ts := base
			ts.TwoStage = TwoStage{InnerIters: 4, PrecondBand: 1}
			got, err := solveLan(t, 4, 0, a, b, ts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Converged {
				t.Fatal("two-stage did not converge")
			}
			if got.InnerSweeps == 0 {
				t.Error("two-stage ran but recorded no inner sweeps")
			}
			if got.TwoStageFallbacks != 0 {
				t.Errorf("unexpected fallbacks: %d", got.TwoStageFallbacks)
			}
			checkClose(t, got.X, exact.X, 200*ts.Tol, "two-stage vs exact")
			checkClose(t, got.X, xtrue, 1e-5, "two-stage vs true solution")
		})
	}
}

// TestTwoStageMatchesExactSynthetic is the same pin on the synthetic
// diagonally dominant generator, plus the fixed-schedule sweep accounting:
// every outer iteration of every rank runs exactly InnerIters sweeps.
func TestTwoStageMatchesExactSynthetic(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 800, Band: 12, PerRow: 7, Negative: true, Seed: 3})
	b, xtrue := gen.RHSForSolution(a)
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			base := Options{Tol: 1e-9, Async: async}
			exact, err := solveLan(t, 4, 0, a, b, base)
			if err != nil {
				t.Fatal(err)
			}
			ts := base
			ts.TwoStage = TwoStage{InnerIters: 4, PrecondBand: 4}
			got, err := solveLan(t, 4, 0, a, b, ts)
			if err != nil {
				t.Fatal(err)
			}
			checkClose(t, got.X, exact.X, 200*ts.Tol, "two-stage vs exact")
			checkClose(t, got.X, xtrue, 1e-6, "two-stage vs true solution")
			if !async {
				var outer int64
				for _, it := range got.IterationsPerRank {
					outer += int64(it)
				}
				if want := 4 * outer; got.InnerSweeps != want {
					t.Errorf("InnerSweeps = %d, want %d (4 sweeps × %d rank-iterations)",
						got.InnerSweeps, want, outer)
				}
			}
			if got.InnerFlops <= 0 || got.FactorFlops <= 0 {
				t.Errorf("flop split not recorded: inner %g, factor %g", got.InnerFlops, got.FactorFlops)
			}
		})
	}
}

// TestTwoStageSchedules checks the nonstationary schedules converge to the
// same solution and actually vary the sweep count: the ramp spends fewer
// sweeps than the fixed schedule on the same problem.
func TestTwoStageSchedules(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 600, Band: 12, PerRow: 7, Negative: true, Seed: 5})
	b, xtrue := gen.RHSForSolution(a)
	run := func(sched string) *Result {
		t.Helper()
		res, err := solveLan(t, 3, 0, a, b, Options{
			Tol:      1e-9,
			TwoStage: TwoStage{InnerIters: 8, Schedule: sched, PrecondBand: 4},
		})
		if err != nil {
			t.Fatalf("schedule %q: %v", sched, err)
		}
		checkClose(t, res.X, xtrue, 1e-6, "schedule "+sched)
		return res
	}
	fixed := run(ScheduleFixed)
	ramp := run(ScheduleRamp)
	resid := run(ScheduleResidual)
	if ramp.InnerSweeps >= fixed.InnerSweeps {
		t.Errorf("ramp spent %d sweeps, fixed %d — ramp should be cheaper", ramp.InnerSweeps, fixed.InnerSweeps)
	}
	if resid.InnerSweeps == fixed.InnerSweeps {
		t.Logf("residual schedule matched fixed (%d sweeps) — allowed, but unusual", resid.InnerSweeps)
	}
}

// TestInnerScheduleUnits pins the schedule arithmetic directly.
func TestInnerScheduleUnits(t *testing.T) {
	ramp := newInnerSchedule(TwoStage{InnerIters: 8, Schedule: ScheduleRamp})
	want := []int{1, 2, 4, 8, 8, 8}
	for i, w := range want {
		if got := ramp.next(i + 1); got != w {
			t.Errorf("ramp iteration %d: %d sweeps, want %d", i+1, got, w)
		}
	}
	resid := newInnerSchedule(TwoStage{InnerIters: 4, Schedule: ScheduleResidual})
	resid.observe(iterative.InnerResult{Res0: 1.0, Res: 0.9}) // barely contracted: double
	if got := resid.next(2); got != 8 {
		t.Errorf("after weak contraction: %d sweeps, want 8", got)
	}
	resid.observe(iterative.InnerResult{Res0: 1.0, Res: 1e-6}) // strongly contracted: halve
	if got := resid.next(3); got != 4 {
		t.Errorf("after strong contraction: %d sweeps, want 4", got)
	}
	resid.observe(iterative.InnerResult{}) // converged stage: no change
	if got := resid.next(4); got != 4 {
		t.Errorf("after zero-residual stage: %d sweeps, want 4", got)
	}
}

// TestTwoStageFallback drives the inner iteration divergent (an
// over-relaxed sweep on the Poisson line splitting) and checks the rank
// falls back to the exact band solve and still converges.
func TestTwoStageFallback(t *testing.T) {
	a := gen.Poisson2D(16, 16)
	b, xtrue := gen.RHSForSolution(a)
	res, err := solveLan(t, 2, 0, a, b, Options{
		Tol:      1e-9,
		Overlap:  8,
		TwoStage: TwoStage{InnerIters: 6, Omega: 1.8, PrecondBand: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("fallback run did not converge")
	}
	if res.TwoStageFallbacks == 0 {
		t.Fatal("expected at least one inner-divergence fallback")
	}
	checkClose(t, res.X, xtrue, 1e-5, "fallback solution")
}

// TestTwoStageValidation covers the option errors, at Launch and through
// Validate, which the commands call on their flags.
func TestTwoStageValidation(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 60, Seed: 1})
	b := make([]float64, 60)
	cases := []Options{
		{TwoStage: TwoStage{InnerIters: 2, Schedule: "sometimes"}},
		{TwoStage: TwoStage{InnerIters: 2, Omega: 2.5}},
		{TwoStage: TwoStage{InnerIters: 2, Omega: math.NaN()}},
		{TwoStage: TwoStage{InnerIters: 2, PrecondBand: -1}},
	}
	for i, o := range cases {
		pl, hs := lanPlatform(2, 0)
		if _, err := Launch(vgrid.NewEngine(pl), hs, a, b, o); err == nil {
			t.Errorf("case %d: invalid two-stage options accepted", i)
		}
		o.TwoStage.InnerIters = 0
		if o.TwoStage.Validate() == nil {
			t.Errorf("case %d: Validate accepted invalid two-stage options", i)
		}
	}
	if err := (TwoStage{}).Validate(); err != nil {
		t.Errorf("Validate of the defaults: %v", err)
	}
}

// gridSolve runs the solver configured by o on a generated multi-cluster
// platform with the requested lane and worker counts (lanes < 0: one lane per
// cluster) and returns the result plus its record (recordOf).
func gridSolve(t *testing.T, o Options, lanes, workers int) (*Result, runRecord) {
	t.Helper()
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 900, Band: 12, PerRow: 7, Seed: 9})
	b, _ := gen.RHSForSolution(a)
	plt := cluster.Synthetic(9, 3, 0.3, 5)
	e := vgrid.NewEngine(plt.Platform)
	if lanes != 0 {
		if lanes < 0 {
			e.SetLanes(0) // auto: one lane per cluster
		} else {
			e.SetLanes(lanes)
		}
	}
	if workers > 0 {
		e.SetWorkers(workers)
	}
	rec := &obs.Recorder{}
	e.Observe(rec)
	pend, err := Launch(e, plt.Hosts, a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	pend.Finish()
	res := pend.Result()
	if !res.Converged {
		t.Fatal("no convergence on synthetic grid")
	}
	return res, recordOf(e, rec)
}

// assertGridDeterministic pins the determinism contract for one option set:
// obs records and iterates are byte-identical whether the engine runs one lane or
// one lane per cluster, serial or on a worker pool.
func assertGridDeterministic(t *testing.T, o Options) {
	t.Helper()
	ref, refTrace := gridSolve(t, o, 1, 0)
	for _, v := range []struct {
		name           string
		lanes, workers int
	}{
		{"lanes-auto", -1, 0},
		{"workers-4", 1, 4},
		{"lanes-auto-workers-4", -1, 4},
	} {
		t.Run(v.name, func(t *testing.T) {
			got, gotTrace := gridSolve(t, o, v.lanes, v.workers)
			if got.Iterations != ref.Iterations || got.Time != ref.Time {
				t.Errorf("run diverged: %d iters @ %g s vs %d iters @ %g s",
					got.Iterations, got.Time, ref.Iterations, ref.Time)
			}
			if got.InnerSweeps != ref.InnerSweeps {
				t.Errorf("inner sweeps %d vs %d", got.InnerSweeps, ref.InnerSweeps)
			}
			for i := range got.X {
				if math.Float64bits(got.X[i]) != math.Float64bits(ref.X[i]) {
					t.Fatalf("iterate diverges at x[%d]: %x vs %x",
						i, math.Float64bits(got.X[i]), math.Float64bits(ref.X[i]))
				}
			}
			if d := refTrace.diff(gotTrace); d != "" {
				t.Errorf("obs record not identical: %s", d)
			}
		})
	}
}

// TestTwoStageDeterministicAcrossLanesAndWorkers pins the determinism
// contract for the two-stage mode with everything composed on top: gateway
// aggregation, two-level collectives, sharded lanes and a worker pool.
func TestTwoStageDeterministicAcrossLanesAndWorkers(t *testing.T) {
	assertGridDeterministic(t, Options{
		Tol: 1e-8, TopoCollectives: true, Gateway: true,
		TwoStage: TwoStage{InnerIters: 4, PrecondBand: 4},
	})
}

// TestTwoStageMemoryWall is the tentpole claim in miniature: on a budgeted
// platform sized between the preconditioner footprint and the exact LU
// fill, the stationary method dies of "not enough memory" while two-stage
// solves the same system to the same accuracy.
func TestTwoStageMemoryWall(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 1600, Band: 220, PerRow: 10, Negative: true, Seed: 11})
	b, xtrue := gen.RHSForSolution(a)
	const hosts = 4
	budget := twoStageBudget(t, a, hosts, 16)

	exact, err := solveLan(t, hosts, budget, a, b, Options{Tol: 1e-8, TrackMemory: true})
	if err == nil {
		t.Fatalf("exact method fit in %d bytes; expected the memory wall (converged=%v)",
			budget, exact.Converged)
	}
	if !strings.Contains(err.Error(), "memory") {
		t.Fatalf("exact method failed with %v, want a memory failure", err)
	}

	res, err := solveLan(t, hosts, budget, a, b, Options{
		Tol: 1e-8, TrackMemory: true,
		TwoStage: TwoStage{InnerIters: 4, PrecondBand: 16},
	})
	if err != nil {
		t.Fatalf("two-stage under the same budget: %v", err)
	}
	if res.TwoStageFallbacks != 0 {
		t.Fatalf("two-stage fell back %d times — the wall test needs the inner path", res.TwoStageFallbacks)
	}
	checkClose(t, res.X, xtrue, 1e-5, "two-stage beyond the wall")
}

// TestSessionTwoStageResolves pins the distributed session's two-stage path
// bitwise: the first Resolve reproduces the one-shot solve, and a refreshed
// Resolve reproduces a from-scratch one-shot solve on the new values (the
// preconditioner refresh is numerically identical to factoring fresh).
func TestSessionTwoStageResolves(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Band: 12, PerRow: 7, Negative: true, Seed: 23})
	b, _ := gen.RHSForSolution(a)
	o := Options{Tol: 1e-9, TwoStage: TwoStage{InnerIters: 4, PrecondBand: 4}}
	sess, err := NewSession(newLanFactory(4), a, o)
	if err != nil {
		t.Fatal(err)
	}
	checkBitwise := func(label string, m *sparse.CSR, got *Result) {
		t.Helper()
		oneShot, err := solveLan(t, 4, 0, m, b, o)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(oneShot.X[i]) {
				t.Fatalf("%s: x[%d] differs: %x vs %x", label, i,
					math.Float64bits(got.X[i]), math.Float64bits(oneShot.X[i]))
			}
		}
	}
	res, err := sess.Resolve(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	checkBitwise("first Resolve", a, res)

	vals := perturbedVals(a, 1)[0]
	res2, err := sess.Resolve(vals, b)
	if err != nil {
		t.Fatal(err)
	}
	if res2.InnerSweeps == 0 {
		t.Fatal("refreshed Resolve recorded no inner sweeps")
	}
	a2 := a.Clone()
	copy(a2.Val, vals)
	checkBitwise("refreshed Resolve", a2, res2)
}

// twoStageBudget probes band 0's exact-LU and preconditioner footprints and
// returns a per-host budget between them: enough for the working set plus
// the band preconditioner, not enough for the exact factors.
func twoStageBudget(t *testing.T, a *sparse.CSR, hosts, width int) int64 {
	t.Helper()
	d, err := NewDecomposition(a.Rows, hosts, 0, WeightOwner)
	if err != nil {
		t.Fatal(err)
	}
	var cnt vec.Counter
	minExact := int64(0)
	maxPc := int64(0)
	maxBase := int64(0)
	for _, band := range d.Bands {
		sub := a.Submatrix(band.Lo, band.Hi, band.Lo, band.Hi)
		fact, err := (&splu.SparseLU{}).Factor(sub, &cnt)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := splu.NewBandPreconditioner(sub, width, &cnt)
		if err != nil {
			t.Fatal(err)
		}
		if minExact == 0 || fact.Bytes() < minExact {
			minExact = fact.Bytes()
		}
		if pc.Bytes() > maxPc {
			maxPc = pc.Bytes()
		}
		// The non-factor working set: band submatrix, dependency columns
		// (bounded by the submatrix itself) and the iteration vectors.
		if base := 2*csrBytes(sub) + 16*int64(band.Size()); base > maxBase {
			maxBase = base
		}
	}
	if minExact <= 2*maxPc {
		t.Fatalf("probe: exact fill %d bytes not clearly above preconditioner %d — grow the test matrix", minExact, maxPc)
	}
	return maxBase + maxPc + minExact/2
}
