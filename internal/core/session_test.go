package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/vgrid"
)

// newLanFactory returns a platform factory producing a fresh n-host LAN per
// call (sessions need a new platform for every Resolve: engines are one-shot).
func newLanFactory(n int) func() (*vgrid.Platform, []*vgrid.Host) {
	return func() (*vgrid.Platform, []*vgrid.Host) {
		return lanPlatform(n, 0)
	}
}

// perturbedVals returns a sequence of value arrays over m's pattern standing
// in for Newton-step Jacobians: same pattern, drifting values, the diagonal
// growing per step as with a monotone nonlinearity (pivots stay healthy).
func perturbedVals(m *sparse.CSR, steps int) [][]float64 {
	vals := make([][]float64, steps)
	for s := range vals {
		v := make([]float64, m.NNZ())
		copy(v, m.Val)
		for i := 0; i < m.Rows; i++ {
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				if m.ColInd[p] == i {
					v[p] += 0.04 * float64(s+1) * math.Abs(v[p])
				} else {
					v[p] *= 1 + 0.001*float64(s+1)*float64(p%5-2)
				}
			}
		}
		vals[s] = v
	}
	return vals
}

// launchResolve drives one Resolve through Session.Launch on an engine the
// configure callback set up — what Session.Resolve does, with the engine in
// the caller's hands.
func launchResolve(t *testing.T, sess *Session, pl *vgrid.Platform, hosts []*vgrid.Host, vals, b []float64, configure func(e *vgrid.Engine)) *Result {
	t.Helper()
	e := vgrid.NewEngine(pl)
	configure(e)
	pend, err := sess.Launch(e, hosts, vals, b)
	if err != nil {
		t.Fatal(err)
	}
	if !pend.Running() {
		t.Fatal("Pending.Running() is false before the engine ran")
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if pend.Running() {
		t.Fatal("Pending.Running() is true after the engine ran")
	}
	pend.Finish()
	return pend.Result()
}

// runSessionOnEngines drives a 3-step resolve sequence (factor, then two
// refactorized solves) on a generated two-site grid through Session.Launch,
// on engines with the given worker and lane counts (lanes 0: one lane per
// cluster), capturing the concatenated obs records of all three engines.
func runSessionOnEngines(t *testing.T, workers, lanes int, o Options) ([]runRecord, []*Result, float64) {
	t.Helper()
	m := gen.DiagDominant(gen.DiagDominantOpts{N: 500, Band: 50, PerRow: 8, Margin: 0.08, Negative: true, Seed: 3030})
	b, _ := gen.RHSForSolution(m)
	factory := func() (*vgrid.Platform, []*vgrid.Host) {
		plt := cluster.Synthetic(6, 2, 0.3, 5)
		return plt.Platform, plt.Hosts
	}
	sess, err := NewSession(factory, m, o)
	if err != nil {
		t.Fatal(err)
	}
	var records []runRecord
	var results []*Result
	for _, v := range append([][]float64{nil}, perturbedVals(m, 2)...) {
		pl, hosts := factory()
		var eng *vgrid.Engine
		rec := &obs.Recorder{}
		results = append(results, launchResolve(t, sess, pl, hosts, v, b, func(e *vgrid.Engine) {
			eng = e
			e.SetWorkers(workers)
			e.SetLanes(lanes)
			e.Observe(rec)
		}))
		records = append(records, recordOf(eng, rec))
		if lanes == 0 && eng.Lanes() != 2 {
			t.Fatalf("engine ran %d lanes on the two-site grid, want one per cluster", eng.Lanes())
		}
	}
	return records, results, sess.FactorFlops
}

// TestSessionWorkersDeterministic: with sessions and refactorization enabled,
// the concatenated obs records of a factor + refactor + refactor resolve
// sequence must stay byte-identical across worker and lane counts, in both
// sync and async mode, along with bitwise-identical solutions and flop
// totals. The engines are the caller's (Session.Launch): a session has no
// engine knobs of its own.
func TestSessionWorkersDeterministic(t *testing.T) {
	cases := []struct {
		name string
		o    Options
	}{
		{"sync", Options{Tol: 1e-8, Overlap: 10}},
		{"async", Options{Tol: 1e-8, Overlap: 10, Async: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr1, res1, ff1 := runSessionOnEngines(t, 1, 1, tc.o)
			for _, v := range []struct{ workers, lanes int }{{4, 1}, {1, 0}, {4, 0}} {
				trN, resN, ffN := runSessionOnEngines(t, v.workers, v.lanes, tc.o)
				what := fmt.Sprintf("%d workers, lanes=%d", v.workers, v.lanes)
				for k := range tr1 {
					if d := tr1[k].diff(trN[k]); d != "" {
						t.Fatalf("%s: resolve %d: records diverge: %s", what, k, d)
					}
				}
				if ff1 != ffN {
					t.Fatalf("%s: factor flops: %v vs %v", what, ff1, ffN)
				}
				for k := range res1 {
					sameResult(t, fmt.Sprintf("%s: resolve %d", what, k), resN[k], res1[k])
					if !resN[k].Converged {
						t.Fatalf("%s: resolve %d did not converge", what, k)
					}
				}
			}
		})
	}
}

// TestSessionFirstResolveMatchesSolve: a session's first Resolve runs the
// same rank program as the one-shot Solve — identical solution, iteration
// counts and virtual time.
func TestSessionFirstResolveMatchesSolve(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Band: 40, PerRow: 8, Margin: 0.1, Negative: true, Seed: 55})
	b, _ := gen.RHSForSolution(a)
	o := Options{Tol: 1e-8, Overlap: 8}
	pl, hosts := lanPlatform(4, 0)
	ref, err := Solve(pl, hosts, a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(newLanFactory(4), a, o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Resolve(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != ref.Iterations {
		t.Fatalf("iterations: session %d, Solve %d", got.Iterations, ref.Iterations)
	}
	if got.Time != ref.Time {
		t.Fatalf("virtual time: session %v, Solve %v", got.Time, ref.Time)
	}
	for i := range ref.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(ref.X[i]) {
			t.Fatalf("x[%d] differs bitwise: %v vs %v", i, got.X[i], ref.X[i])
		}
	}
}

// TestSessionRefactorResolveCheaper: after the first Resolve, refactorized
// steps must report a smaller factorization time and charge fewer flops than
// the NoRefactor baseline session.
func TestSessionRefactorResolveCheaper(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 500, Band: 50, PerRow: 8, Margin: 0.1, Negative: true, Seed: 77})
	b, _ := gen.RHSForSolution(a)
	o := Options{Tol: 1e-8, Overlap: 8}
	v := perturbedVals(a, 1)[0]

	run := func(noRefactor bool) (second *Result, ff float64) {
		sess, err := NewSession(newLanFactory(4), a, o)
		if err != nil {
			t.Fatal(err)
		}
		sess.NoRefactor = noRefactor
		if _, err = sess.Resolve(nil, b); err != nil {
			t.Fatal(err)
		}
		second, err = sess.Resolve(v, b)
		if err != nil {
			t.Fatal(err)
		}
		return second, sess.FactorFlops
	}
	fast, ffFast := run(false)
	slow, ffSlow := run(true)
	if ffFast >= ffSlow {
		t.Fatalf("refactor session flops %v >= baseline %v", ffFast, ffSlow)
	}
	if fast.FactorTime >= slow.FactorTime {
		t.Fatalf("refactor step FactorTime %v >= full factor %v", fast.FactorTime, slow.FactorTime)
	}
	for i := range fast.X {
		if math.Abs(fast.X[i]-slow.X[i]) > 1e-9*(1+math.Abs(slow.X[i])) {
			t.Fatalf("x[%d]: refactor %v, baseline %v", i, fast.X[i], slow.X[i])
		}
	}
}

// TestSessionOptionRejections: a session takes every option a one-shot solve
// takes (TestSessionOptionMatrix); the one thing NewSession refuses is a
// missing platform factory.
func TestSessionOptionRejections(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 100, Seed: 1})
	t.Run("nil-factory", func(t *testing.T) {
		if _, err := NewSession(nil, a, Options{}); err == nil {
			t.Fatal("expected rejection")
		}
	})
}

// TestSessionFactorFlopsPerResolve: every Resolve reports the factorization
// arithmetic it ran — a full factorization first, then a refactorization, a
// full factorization again (NoRefactor) or a preconditioner refresh
// (two-stage) — and the session's tally is the sum of its Resolves'.
func TestSessionFactorFlopsPerResolve(t *testing.T) {
	m := gen.DiagDominant(gen.DiagDominantOpts{N: 500, Band: 50, PerRow: 8, Margin: 0.08, Negative: true, Seed: 3030})
	b, _ := gen.RHSForSolution(m)
	vals := append([][]float64{nil}, perturbedVals(m, 2)...)
	shares := func(o Options, noRefactor bool) []float64 {
		t.Helper()
		sess, err := NewSession(newLanFactory(6), m, o)
		if err != nil {
			t.Fatal(err)
		}
		sess.NoRefactor = noRefactor
		var out []float64
		sum := 0.0
		for k, v := range vals {
			before := sess.FactorFlops
			r, err := sess.Resolve(v, b)
			if err != nil {
				t.Fatal(err)
			}
			if r.FactorFlops <= 0 {
				t.Fatalf("resolve %d reports %v factor flops", k, r.FactorFlops)
			}
			if share := sess.FactorFlops - before; share != r.FactorFlops {
				t.Fatalf("resolve %d: Result.FactorFlops %v, its share of Session.FactorFlops %v", k, r.FactorFlops, share)
			}
			out = append(out, r.FactorFlops)
			sum += r.FactorFlops
		}
		if sess.FactorFlops != sum {
			t.Fatalf("Session.FactorFlops %v, the three Resolves sum to %v", sess.FactorFlops, sum)
		}
		return out
	}
	exact := Options{Tol: 1e-8, Overlap: 10}
	refactor := shares(exact, false)
	full := shares(exact, true)
	for k := 1; k < 3; k++ {
		if full[k] < 0.9*full[0] {
			t.Errorf("NoRefactor resolve %d: %v flops against %v for the first factorization", k, full[k], full[0])
		}
		if refactor[k] >= full[k] {
			t.Errorf("resolve %d: refactorization %v flops, full factorization %v", k, refactor[k], full[k])
		}
	}
	twoStage := exact
	twoStage.TwoStage = TwoStage{InnerIters: 4, PrecondBand: 8}
	shares(twoStage, false)
}

// TestSessionHostCountPinned: the decomposition is fixed by the first
// Resolve, so a factory that later changes its host count is an error.
func TestSessionHostCountPinned(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 200, Seed: 5})
	b, _ := gen.RHSForSolution(a)
	n := 3
	sess, err := NewSession(func() (*vgrid.Platform, []*vgrid.Host) {
		return lanPlatform(n, 0)
	}, a, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Resolve(nil, b); err != nil {
		t.Fatal(err)
	}
	n = 4
	if _, err := sess.Resolve(nil, b); err == nil {
		t.Fatal("expected host-count mismatch error")
	}
}
