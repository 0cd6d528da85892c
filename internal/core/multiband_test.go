package core

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

func TestMultibandSyncMatchesSequential(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Seed: 70})
	b, xtrue := gen.RHSForSolution(a)
	// 3 ranks × 2 bands each must iterate exactly like the sequential
	// 6-band fixed point.
	pl, hosts := lanPlatform(3, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-10, BandsPerProc: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-7)
	d, _ := NewDecomposition(a.Rows, 6, 0, WeightOwner)
	var c vec.Counter
	seq, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-10, 100000, &c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != seq.Iterations {
		t.Fatalf("multiband %d iterations, sequential 6-band %d", res.Iterations, seq.Iterations)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-seq.X[i]) > 1e-12*(1+math.Abs(seq.X[i])) {
			t.Fatalf("solutions differ at %d", i)
		}
	}
}

func TestMultibandWithOverlap(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 360, Margin: 0.1, Seed: 71})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(3, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, BandsPerProc: 3, Overlap: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
}

func TestMultibandAsync(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Seed: 72})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(4, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, BandsPerProc: 2, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
	if !res.Converged {
		t.Fatal("not converged")
	}
}

func TestMultibandAsyncDistant(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 600, Seed: 73})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := twoSitePlatform(2, 2)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, BandsPerProc: 2, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
}

func TestMultibandAverageWeights(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Seed: 74})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(3, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, BandsPerProc: 2, Overlap: 10, Scheme: WeightAverage})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
}

func TestMultibandSingleRankManyBands(t *testing.T) {
	// All bands on one rank: fully local exchange.
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 200, Seed: 75})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(1, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-10, BandsPerProc: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-7)
	if res.MsgsSent > 5 {
		// Only the final gather (none: rank 0 keeps it) plus collectives.
		t.Logf("note: %d messages on a single rank", res.MsgsSent)
	}
}

// TestMultibandFaultedAsyncMatchesFaultFree: several bands per processor run
// the same degraded mode as one band — retransmission, detector refresh,
// timed critical receives — so a seeded WAN drop plan still reaches the
// fault-free answer.
func TestMultibandFaultedAsyncMatchesFaultFree(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 240, Seed: 23})
	_, xtrue := gen.RHSForSolution(a)
	o := ftAsyncOptions()
	o.BandsPerProc = 2
	clean, _, err := faultedSolve(t, 0, nil, o)
	if err != nil {
		t.Fatalf("fault-free solve: %v", err)
	}
	for seed := int64(7); seed < 10; seed++ {
		faulted, _, err := faultedSolve(t, 0,
			vgrid.NewFaultPlan(seed).DropOnLink("wan", 0, math.Inf(1), 0.1), o)
		if err != nil {
			t.Fatalf("seed %d: faulted solve: %v", seed, err)
		}
		checkSolution(t, faulted, xtrue, 1e-6)
		checkClose(t, faulted.X, clean.X, 1e-6, "faulted vs fault-free")
	}
}

// countingSolver counts the factorizations it is asked for (from deferred
// segments, hence the atomic).
type countingSolver struct {
	splu.Direct
	factors *atomic.Int32
}

func (s countingSolver) Factor(a *sparse.CSR, c *vec.Counter) (splu.Factorization, error) {
	s.factors.Add(1)
	return s.Direct.Factor(a, c)
}

// TestMultibandSolverPerRank: every band of a rank is factored by the rank's
// own solver, nil entries by the default.
func TestMultibandSolverPerRank(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 600, Seed: 41})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(3, 0)
	counts := make([]atomic.Int32, 3)
	res, err := Solve(pl, hosts, a, b, Options{
		Tol: 1e-10, BandsPerProc: 2,
		Solver: countingSolver{&splu.SparseLU{}, &counts[2]},
		SolverPerRank: []splu.Direct{
			countingSolver{splu.DenseSolver{}, &counts[0]},
			countingSolver{splu.BandSolver{}, &counts[1]},
			nil,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-7)
	for r := range counts {
		if n := counts[r].Load(); n != 2 {
			t.Errorf("solver of rank %d factored %d bands, want 2", r, n)
		}
	}
}

// TestMultibandObservability: the recorder sees a multiband run like any
// other — one factor span per band, one iteration span per rank iteration, a
// criterion series — and the result carries the factorization arithmetic.
func TestMultibandObservability(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Seed: 70})
	b, _ := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(3, 0)
	e := vgrid.NewEngine(pl)
	rec := &obs.Recorder{}
	e.Observe(rec)
	pend, err := Launch(e, hosts, a, b, Options{Tol: 1e-10, BandsPerProc: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	pend.Finish()
	res := pend.Result()
	if res.FactorFlops <= 0 {
		t.Errorf("FactorFlops = %v", res.FactorFlops)
	}
	fact, iter := 0, 0
	for _, sp := range rec.Spans() {
		switch sp.Cat {
		case obs.CatFact:
			fact++
		case obs.CatIter:
			iter++
		}
	}
	if fact != 6 {
		t.Errorf("%d factor spans, want one per band (6)", fact)
	}
	if want := 3 * res.Iterations; iter != want {
		t.Errorf("%d iteration spans, want %d", iter, want)
	}
	diffs := 0
	for _, sm := range rec.Samples() {
		if sm.Series == "diff" {
			diffs++
		}
	}
	if want := 3 * res.Iterations; diffs != want {
		t.Errorf("%d diff samples, want %d", diffs, want)
	}
}

// TestMultibandTrackMemory: every band is accounted by the same terms
// whatever the band count per rank — extracted submatrix, dependency matrix,
// right-hand side and factor. Allocations are released when a rank exits, so
// the total is read off the budget: the solve fits hosts sized to exactly
// those terms and runs out of memory one byte below on any of them.
func TestMultibandTrackMemory(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Seed: 70})
	b, _ := gen.RHSForSolution(a)
	for _, k := range []int{1, 2} {
		d, _ := NewDecomposition(a.Rows, 3*k, 0, WeightOwner)
		cp, err := buildCommPlan(a, d, make([]int, 3))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int64, 3)
		for l, band := range d.Bands {
			sub := a.Submatrix(band.Lo, band.Hi, band.Lo, band.Hi)
			fact, err := (&splu.SparseLU{}).Factor(sub, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[l%3] += csrBytes(sub) + csrBytes(a.SelectColumns(band.Lo, band.Hi, cp.DepCols[l])) +
				8*int64(band.Size()) + fact.Bytes()
		}
		for short := -1; short < 3; short++ {
			pl, hosts := lanPlatform(3, 0)
			for r, h := range hosts {
				h.Memory = want[r]
			}
			if short >= 0 {
				hosts[short].Memory--
			}
			_, err := Solve(pl, hosts, a, b, Options{Tol: 1e-10, BandsPerProc: k, TrackMemory: true})
			switch {
			case short < 0 && err != nil:
				t.Errorf("BandsPerProc %d: exact budgets %v: %v", k, want, err)
			case short >= 0 && !errors.Is(err, vgrid.ErrOutOfMemory):
				t.Errorf("BandsPerProc %d: rank %d one byte short of %d: err = %v", k, short, want[short], err)
			}
		}
	}
}

// TestMultibandSession: a persistent session over several bands per rank is
// the same rank program as the one-shot solve, and refactorizes every band
// through its own frozen maps.
func TestMultibandSession(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Band: 40, PerRow: 8, Margin: 0.1, Negative: true, Seed: 55})
	b, _ := gen.RHSForSolution(a)
	o := Options{Tol: 1e-9, Overlap: 4, BandsPerProc: 2}
	pl, hosts := lanPlatform(3, 0)
	ref, err := Solve(pl, hosts, a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(newLanFactory(3), a, o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Resolve(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != ref.Iterations || got.Time != ref.Time {
		t.Fatalf("session %d iters @ %v, Solve %d iters @ %v", got.Iterations, got.Time, ref.Iterations, ref.Time)
	}
	for i := range ref.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(ref.X[i]) {
			t.Fatalf("x[%d] differs bitwise: %v vs %v", i, got.X[i], ref.X[i])
		}
	}
	firstFlops := sess.FactorFlops
	vals := perturbedVals(a, 1)[0]
	a2 := a.Clone()
	copy(a2.Val, vals)
	got, err = sess.Resolve(vals, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := residualInf(a2, got.X, b); r > 1e-7 {
		t.Fatalf("refreshed resolve residual %v", r)
	}
	if refactor := sess.FactorFlops - firstFlops; refactor <= 0 || refactor >= firstFlops {
		t.Fatalf("refactorization cost %v against %v for the first factorization", refactor, firstFlops)
	}
}

// TestMultibandDeterministicAcrossLanesAndWorkers extends the determinism
// contract to several bands per rank under the two modes the old multiband
// driver could not run.
func TestMultibandDeterministicAcrossLanesAndWorkers(t *testing.T) {
	t.Run("gateway", func(t *testing.T) {
		assertGridDeterministic(t, Options{Tol: 1e-8, BandsPerProc: 2, TopoCollectives: true, Gateway: true})
	})
	t.Run("twostage", func(t *testing.T) {
		assertGridDeterministic(t, Options{Tol: 1e-8, BandsPerProc: 2,
			TwoStage: TwoStage{InnerIters: 4, PrecondBand: 4}})
	})
}
