package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
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

func TestSeqSessionFirstResolveMatchesSolveSequential(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Band: 30, PerRow: 6, Margin: 0.1, Negative: true, Seed: 41})
	b, _ := gen.RHSForSolution(a)
	d, err := NewDecomposition(a.Rows, 4, 8, WeightOwner)
	if err != nil {
		t.Fatal(err)
	}
	var c1, c2 vec.Counter
	ref, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-10, 10000, &c1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSeqSession(a, d, &splu.SparseLU{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Resolve(nil, b, 1e-10, 10000, &c2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != ref.Iterations {
		t.Fatalf("iterations: session %d, SolveSequential %d", got.Iterations, ref.Iterations)
	}
	for i := range ref.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(ref.X[i]) {
			t.Fatalf("x[%d] differs bitwise: %v vs %v", i, got.X[i], ref.X[i])
		}
	}
	if sess.FactorFlops <= 0 {
		t.Fatalf("FactorFlops not accumulated: %v", sess.FactorFlops)
	}
}

// TestSeqSessionMultiResolve: each refactorized Resolve must agree with a
// fresh factor-from-scratch solve of the same values, and the amortized
// session must spend under half the factorization work of the per-step
// Factor baseline.
func TestSeqSessionMultiResolve(t *testing.T) {
	m := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Band: 8, PerRow: 3, Margin: 0.1, Negative: true, Seed: 2024})
	b, _ := gen.RHSForSolution(m)
	vals := perturbedVals(m, 6)
	d, err := NewDecomposition(m.Rows, 4, 8, WeightOwner)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSeqSession(m, d, &splu.SparseLU{PivotTol: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewSeqSession(m, d, &splu.SparseLU{PivotTol: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	base.NoRefactor = true
	var cs, cb vec.Counter
	if _, err := sess.Resolve(nil, b, 1e-10, 10000, &cs); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Resolve(nil, b, 1e-10, 10000, &cb); err != nil {
		t.Fatal(err)
	}
	for s, v := range vals {
		got, err := sess.Resolve(v, b, 1e-10, 10000, &cs)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		bg, err := base.Resolve(v, b, 1e-10, 10000, &cb)
		if err != nil {
			t.Fatalf("step %d baseline: %v", s, err)
		}
		// Fresh factor of the same values, no session.
		fresh := m.Clone()
		copy(fresh.Val, v)
		var cf vec.Counter
		ref, err := SolveSequential(fresh, b, d, &splu.SparseLU{PivotTol: 0.1}, 1e-10, 10000, &cf)
		if err != nil {
			t.Fatalf("step %d fresh: %v", s, err)
		}
		if got.Iterations != ref.Iterations {
			t.Fatalf("step %d iterations: session %d, fresh %d", s, got.Iterations, ref.Iterations)
		}
		for i := range ref.X {
			if math.Abs(got.X[i]-ref.X[i]) > 1e-9*(1+math.Abs(ref.X[i])) {
				t.Fatalf("step %d x[%d]: session %v, fresh %v", s, i, got.X[i], ref.X[i])
			}
			if math.Abs(bg.X[i]-ref.X[i]) > 1e-9*(1+math.Abs(ref.X[i])) {
				t.Fatalf("step %d x[%d]: baseline %v, fresh %v", s, i, bg.X[i], ref.X[i])
			}
		}
	}
	if sess.Fallbacks() != 0 {
		t.Fatalf("unexpected pivot fallbacks: %d", sess.Fallbacks())
	}
	if 2*sess.FactorFlops > base.FactorFlops {
		t.Fatalf("refactorization saved less than 2x: session %v, baseline %v", sess.FactorFlops, base.FactorFlops)
	}
}

// TestSeqSessionResolveAllocationFree: a steady-state Resolve (values
// refreshed, refactorization, iteration sweep) performs no allocation.
func TestSeqSessionResolveAllocationFree(t *testing.T) {
	m := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Band: 30, PerRow: 6, Margin: 0.1, Negative: true, Seed: 99})
	b, _ := gen.RHSForSolution(m)
	d, err := NewDecomposition(m.Rows, 4, 8, WeightOwner)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSeqSession(m, d, &splu.SparseLU{})
	if err != nil {
		t.Fatal(err)
	}
	var c vec.Counter
	if _, err := sess.Resolve(nil, b, 1e-10, 10000, &c); err != nil {
		t.Fatal(err)
	}
	v := make([]float64, m.NNZ())
	copy(v, m.Val)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := sess.Resolve(v, b, 1e-10, 10000, &c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Resolve allocates: %v allocs/op", allocs)
	}
}

// runSessionWithWorkers drives a 3-step resolve sequence (factor, then two
// refactorized solves) with the given worker count, capturing the
// concatenated scheduler traces of all three engines.
func runSessionWithWorkers(t *testing.T, workers int, o Options) (string, []*Result, float64) {
	t.Helper()
	m := gen.DiagDominant(gen.DiagDominantOpts{N: 500, Band: 50, PerRow: 8, Margin: 0.08, Negative: true, Seed: 3030})
	b, _ := gen.RHSForSolution(m)
	vals := perturbedVals(m, 2)
	sess, err := NewSession(newLanFactory(6), m, o)
	if err != nil {
		t.Fatal(err)
	}
	sess.Workers = workers
	var sb strings.Builder
	sess.EngineTrace = func(line string) { sb.WriteString(line); sb.WriteByte('\n') }
	var results []*Result
	r0, err := sess.Resolve(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, r0)
	for _, v := range vals {
		r, err := sess.Resolve(v, b)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	return sb.String(), results, sess.FactorFlops
}

// TestSessionWorkersDeterministic: with sessions and refactorization enabled,
// the concatenated scheduler traces of a factor + refactor + refactor resolve
// sequence must stay byte-identical across worker counts, in both sync and
// async mode, along with bitwise-identical solutions and flop totals.
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
			tr1, res1, ff1 := runSessionWithWorkers(t, 1, tc.o)
			tr4, res4, ff4 := runSessionWithWorkers(t, 4, tc.o)
			if tr1 != tr4 {
				d := firstDiffLine(tr1, tr4)
				t.Fatalf("traces diverge (first differing line %d):\n1 worker:  %s\n4 workers: %s", d[0], d[1], d[2])
			}
			if ff1 != ff4 {
				t.Fatalf("factor flops: %v vs %v", ff1, ff4)
			}
			for k := range res1 {
				if res1[k].Iterations != res4[k].Iterations {
					t.Fatalf("resolve %d iterations: %d vs %d", k, res1[k].Iterations, res4[k].Iterations)
				}
				if res1[k].Time != res4[k].Time {
					t.Fatalf("resolve %d virtual time: %v vs %v", k, res1[k].Time, res4[k].Time)
				}
				if res1[k].TotalFlops != res4[k].TotalFlops {
					t.Fatalf("resolve %d total flops: %v vs %v", k, res1[k].TotalFlops, res4[k].TotalFlops)
				}
				for i := range res1[k].X {
					if math.Float64bits(res1[k].X[i]) != math.Float64bits(res4[k].X[i]) {
						t.Fatalf("resolve %d x[%d] differs bitwise", k, i)
					}
				}
				if !res1[k].Converged {
					t.Fatalf("resolve %d did not converge", k)
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

// TestSessionOptionRejections: options that reshape the decomposition or the
// matrix per solve are incompatible with persistent sessions.
func TestSessionOptionRejections(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 100, Seed: 1})
	cases := []struct {
		name       string
		o          Options
		nilFactory bool
	}{
		{"balance", Options{Balance: true}, false},
		{"equilibrate", Options{Equilibrate: true}, false},
		{"nil-factory", Options{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pf := newLanFactory(2)
			if tc.nilFactory {
				pf = nil
			}
			_, err := NewSession(pf, a, tc.o)
			if err == nil {
				t.Fatal("expected rejection")
			}
			if !tc.nilFactory && !errors.Is(err, ErrIncompatible) {
				t.Fatalf("err = %v, want ErrIncompatible", err)
			}
		})
	}
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
