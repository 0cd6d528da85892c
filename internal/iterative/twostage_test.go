package iterative

import (
	"errors"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/splu"
	"repro/internal/vec"
)

func TestPrecondSweepsConverges(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Band: 8, PerRow: 5, Seed: 2})
	b, xtrue := gen.RHSForSolution(a)
	var c vec.Counter
	m, err := splu.NewBandPreconditioner(a, 2, &c)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	r := make([]float64, a.Rows)
	tmp := make([]float64, a.Rows)
	// Repeated sweep blocks drive the residual down like a stationary
	// iteration: each block reports a smaller final residual.
	var last float64 = math.Inf(1)
	for block := 0; block < 6; block++ {
		res, err := PrecondSweeps(a, m, x, b, 1, 8, r, tmp, &c)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sweeps != 8 {
			t.Fatalf("sweeps = %d, want 8", res.Sweeps)
		}
		if res.Res >= last && last > 1e-12 {
			t.Fatalf("block %d residual %g did not drop below %g", block, res.Res, last)
		}
		last = res.Res
	}
	for i := range x {
		if math.Abs(x[i]-xtrue[i]) > 1e-6*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xtrue[i])
		}
	}
}

// TestPrecondSweepsFlopsExact pins the declared cost against the counted
// cost: the engine declares PrecondSweepsFlops up front and the kernel must
// spend exactly that when it completes all k sweeps.
func TestPrecondSweepsFlopsExact(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 150, Band: 10, PerRow: 6, Seed: 4})
	b, _ := gen.RHSForSolution(a)
	var c vec.Counter
	m, err := splu.NewBandPreconditioner(a, 3, &c)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 5} {
		x := make([]float64, a.Rows)
		r := make([]float64, a.Rows)
		tmp := make([]float64, a.Rows)
		var kc vec.Counter
		if _, err := PrecondSweeps(a, m, x, b, 1, k, r, tmp, &kc); err != nil {
			t.Fatal(err)
		}
		want := PrecondSweepsFlops(a, m, k)
		if kc.Flops() != want {
			t.Fatalf("k=%d: counted %g flops, declared %g", k, kc.Flops(), want)
		}
	}
}

// TestPrecondSweepsDiverges forces a divergent relaxation (omega far past
// the stability limit on a non-dominant operator) and checks the kernel
// surfaces ErrDiverged instead of looping k times on exploding iterates.
func TestPrecondSweepsDiverges(t *testing.T) {
	a := gen.Poisson2D(12, 12)
	b, _ := gen.RHSForSolution(a)
	var c vec.Counter
	m, err := splu.NewBandPreconditioner(a, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	r := make([]float64, a.Rows)
	tmp := make([]float64, a.Rows)
	res, err := PrecondSweeps(a, m, x, b, 1.99, 64, r, tmp, &c)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	if res.Sweeps >= 64 {
		t.Fatalf("divergence detected only after %d sweeps", res.Sweeps)
	}
}

// TestPrecondSweepsInfiniteRHS: a +Inf in b still ends the stage with
// ErrDiverged after its first sweep. The band solve no longer multiplies
// U's structural zeros, and a 0·Inf among those products was NaN whatever
// the rest of the solve did; the infinity must still reach the iterate as a
// non-finite value without them. The matrix is the wan_async_twostage band
// shape, whose preconditioner swaps no row (U is ku = 16 wide, not kv = 32).
func TestPrecondSweepsInfiniteRHS(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 1200, Band: 220, PerRow: 10, Negative: true, Seed: 1})
	b, _ := gen.RHSForSolution(a)
	b[600] = math.Inf(1)
	m, err := splu.NewBandPreconditioner(a, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	r := make([]float64, a.Rows)
	tmp := make([]float64, a.Rows)
	res, err := PrecondSweeps(a, m, x, b, 1, 4, r, tmp, nil)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	if res.Sweeps != 1 {
		t.Fatalf("divergence reported after %d sweeps, want 1", res.Sweeps)
	}
}

func TestPrecondSweepsValidation(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 20, Seed: 1})
	b, _ := gen.RHSForSolution(a)
	var c vec.Counter
	m, err := splu.NewBandPreconditioner(a, 2, &c)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	r := make([]float64, a.Rows)
	tmp := make([]float64, a.Rows)
	// A rejected weight is a usage error, not a divergence: core answers
	// ErrDiverged with the exact fallback.
	for _, omega := range []float64{0, -0.5, 2, 2.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := PrecondSweeps(a, m, x, b, omega, 1, r, tmp, &c)
		if err == nil || errors.Is(err, ErrDiverged) {
			t.Fatalf("omega %g: err = %v, want a rejection that is not ErrDiverged", omega, err)
		}
	}
}
