package splu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/vec"
)

func TestSolveTranspose(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 200, Seed: 9})
	at := a.Transpose()
	bt, xtrue := gen.RHSForSolution(at) // bt = Aᵀ·xtrue
	var c vec.Counter
	f, err := (&SparseLU{}).Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	f.(*sparseFactors).SolveT(x, bt, &c)
	for i := range x {
		if math.Abs(x[i]-xtrue[i]) > 1e-7*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xtrue[i])
		}
	}
}

func TestSolveTransposeAliasing(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 50, Seed: 10})
	at := a.Transpose()
	bt, xtrue := gen.RHSForSolution(at)
	var c vec.Counter
	f, err := (&SparseLU{}).Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}
	buf := vec.Clone(bt)
	f.(*sparseFactors).SolveT(buf, buf, &c) // in-place
	for i := range buf {
		if math.Abs(buf[i]-xtrue[i]) > 1e-7*(1+math.Abs(xtrue[i])) {
			t.Fatalf("in-place SolveT wrong at %d", i)
		}
	}
}

func TestNorm1(t *testing.T) {
	co := sparse.NewCOO(2, 2)
	co.Append(0, 0, 3)
	co.Append(1, 0, -4)
	co.Append(1, 1, 2)
	if got := Norm1(co.ToCSR()); got != 7 {
		t.Fatalf("Norm1 = %v, want 7", got)
	}
}

// exactCond1 computes κ₁ exactly by solving against all unit vectors.
func exactCond1(t *testing.T, a *sparse.CSR) float64 {
	t.Helper()
	var c vec.Counter
	f, err := (&SparseLU{}).Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	e := make([]float64, n)
	col := make([]float64, n)
	invNorm := 0.0
	for j := 0; j < n; j++ {
		e[j] = 1
		f.Solve(col, e, &c)
		e[j] = 0
		s := 0.0
		for _, v := range col {
			s += math.Abs(v)
		}
		if s > invNorm {
			invNorm = s
		}
	}
	return Norm1(a) * invNorm
}

func TestCondEst1MatchesExactOrder(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 80, Seed: 11})
	var c vec.Counter
	f, err := (&SparseLU{}).Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}
	est := CondEst1(a, f, &c)
	exact := exactCond1(t, a)
	// Hager's estimator is a lower bound, typically within a small factor.
	if est > exact*1.000001 {
		t.Fatalf("estimate %v exceeds exact %v", est, exact)
	}
	if est < exact/10 {
		t.Fatalf("estimate %v far below exact %v", est, exact)
	}
}

func TestCondEst1IllConditioned(t *testing.T) {
	// A nearly singular tridiagonal: condition number must be large.
	a := gen.Tridiag(100, -1, 2.0001, -1)
	var c vec.Counter
	f, err := (&SparseLU{}).Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}
	est := CondEst1(a, f, &c)
	if est < 1e3 {
		t.Fatalf("near-singular estimate %v suspiciously small", est)
	}
	// A well-conditioned diagonal-ish matrix for contrast.
	w := gen.DiagDominant(gen.DiagDominantOpts{N: 100, Margin: 3, Seed: 12})
	fw, err := (&SparseLU{}).Factor(w, &c)
	if err != nil {
		t.Fatal(err)
	}
	if ew := CondEst1(w, fw, &c); ew > est {
		t.Fatalf("well-conditioned estimate %v above ill-conditioned %v", ew, est)
	}
}

// Property: the estimator never exceeds the exact condition number (it is a
// lower bound by construction) and stays within a reasonable factor.
func TestCondEst1Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		a := gen.RandomDominant(n, 3, 0.4, rng)
		var c vec.Counter
		fct, err := (&SparseLU{}).Factor(a, &c)
		if err != nil {
			return true // singular draws are out of scope
		}
		est := CondEst1(a, fct, &c)
		exact := exactCond1(t, a)
		return est <= exact*1.000001 && est >= exact/20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
