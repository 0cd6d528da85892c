package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/iterative"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
)

func residualInf(a interface {
	MulVec(y, x []float64, c *vec.Counter)
}, x, b []float64) float64 {
	y := make([]float64, len(b))
	var c vec.Counter
	a.MulVec(y, x, &c)
	r := 0.0
	for i := range y {
		if d := math.Abs(y[i] - b[i]); d > r {
			r = d
		}
	}
	return r
}

func TestSolveSequentialDominant(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Seed: 1})
	b, xtrue := gen.RHSForSolution(a)
	d, _ := NewDecomposition(a.Rows, 4, 0, WeightOwner)
	var c vec.Counter
	res, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-10, 5000, &c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xtrue[i]) > 1e-7*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xtrue[i])
		}
	}
	if res.Iterations < 2 {
		t.Fatalf("suspiciously few iterations: %d", res.Iterations)
	}
}

func TestSolveSequentialCageLike(t *testing.T) {
	a := gen.CageLike(600, 3)
	b, xtrue := gen.RHSForSolution(a)
	d, _ := NewDecomposition(a.Rows, 6, 0, WeightOwner)
	var c vec.Counter
	res, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-10, 5000, &c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xtrue[i]) > 1e-6*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xtrue[i])
		}
	}
}

// blockJacobi is the reference of TestSequentialEqualsBlockJacobi: the block
// Jacobi iteration over the contiguous row blocks [starts[l], starts[l+1]),
// written from the textbook with none of the engine's band machinery. It
// overwrites x (the initial guess) and returns the number of sweeps.
func blockJacobi(a *sparse.CSR, starts []int, d splu.Direct, x, b []float64, tol float64, maxIter int, c *vec.Counter) (int, error) {
	n := a.Rows
	type block struct {
		r0, r1 int
		fact   splu.Factorization
		offDia *sparse.CSR // rows of the block with the diagonal block zeroed
	}
	blocks := make([]block, len(starts)-1)
	for l := range blocks {
		r0, r1 := starts[l], starts[l+1]
		f, err := d.Factor(a.Submatrix(r0, r1, r0, r1), c)
		if err != nil {
			return 0, err
		}
		co := sparse.NewCOO(r1-r0, n)
		for i := r0; i < r1; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				if j := a.ColInd[p]; j < r0 || j >= r1 {
					co.Append(i-r0, j, a.Val[p])
				}
			}
		}
		blocks[l] = block{r0: r0, r1: r1, fact: f, offDia: co.ToCSR()}
	}
	xNew := make([]float64, n)
	for k := 1; k <= maxIter; k++ {
		for _, bl := range blocks {
			rhs := vec.Clone(b[bl.r0:bl.r1])
			bl.offDia.MulVecSub(rhs, x, c)
			bl.fact.Solve(xNew[bl.r0:bl.r1], rhs, c)
		}
		diff := vec.DiffNormInf(x, xNew, c)
		copy(x, xNew)
		if diff <= tol {
			return k, nil
		}
	}
	return maxIter, ErrNoConvergence
}

// With disjoint bands and owner weights, the multisplitting method is
// exactly block Jacobi (paper Remark 1): same iteration count, same answer.
func TestSequentialEqualsBlockJacobi(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Seed: 4})
	b, _ := gen.RHSForSolution(a)
	nb := 5
	d, _ := NewDecomposition(a.Rows, nb, 0, WeightOwner)
	var c1, c2 vec.Counter
	tol := 1e-9
	ms, err := SolveSequential(a, b, d, &splu.SparseLU{}, tol, 5000, &c1)
	if err != nil {
		t.Fatal(err)
	}
	xbj := make([]float64, a.Rows)
	starts := make([]int, nb+1)
	for l := range starts {
		starts[l] = l * a.Rows / nb
	}
	bjIters, err := blockJacobi(a, starts, &splu.SparseLU{}, xbj, b, tol, 5000, &c2)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Iterations != bjIters {
		t.Fatalf("multisplitting %d iterations vs block Jacobi %d", ms.Iterations, bjIters)
	}
	for i := range xbj {
		if math.Abs(ms.X[i]-xbj[i]) > 1e-12*(1+math.Abs(xbj[i])) {
			t.Fatalf("iterates differ at %d: %v vs %v", i, ms.X[i], xbj[i])
		}
	}
}

// Overlap (Schwarz) reduces the iteration count on a tightly dominant
// matrix — the numerical-analysis fact behind Figure 3.
func TestOverlapReducesIterations(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 600, Margin: 0.05, Seed: 9})
	b, _ := gen.RHSForSolution(a)
	iters := map[int]int{}
	for _, ov := range []int{0, 30} {
		d, _ := NewDecomposition(a.Rows, 4, ov, WeightOwner)
		var c vec.Counter
		res, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-8, 20000, &c)
		if err != nil {
			t.Fatalf("overlap %d: %v", ov, err)
		}
		iters[ov] = res.Iterations
	}
	if iters[30] >= iters[0] {
		t.Fatalf("overlap 30 took %d iterations, no better than %d without overlap", iters[30], iters[0])
	}
}

func TestAverageWeightsConverge(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Margin: 0.2, Seed: 10})
	b, xtrue := gen.RHSForSolution(a)
	d, _ := NewDecomposition(a.Rows, 4, 20, WeightAverage)
	var c vec.Counter
	res, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-9, 20000, &c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xtrue[i]) > 1e-6*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xtrue[i])
		}
	}
}

func TestSolveSequentialSingleBandIsDirect(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 100, Seed: 2})
	b, xtrue := gen.RHSForSolution(a)
	d, _ := NewDecomposition(a.Rows, 1, 0, WeightOwner)
	var c vec.Counter
	res, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-10, 10, &c)
	if err != nil {
		t.Fatal(err)
	}
	// One band has no dependencies: the direct answer in the first solve,
	// convergence detected on the second iteration.
	if res.Iterations > 2 {
		t.Fatalf("single band took %d iterations", res.Iterations)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xtrue[i]) > 1e-8*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] wrong", i)
		}
	}
}

func TestSolveSequentialDivergenceDetected(t *testing.T) {
	// A = [[I, 2I], [2I, I]] has block-Jacobi iteration matrix of spectral
	// radius 2: the iterates blow up and the driver must report divergence,
	// not silently "converge" on overflowed values.
	m := 30
	co := sparseNewDivergent(m)
	a := co
	b := make([]float64, 2*m)
	b[0] = 1
	d, _ := NewDecomposition(2*m, 2, 0, WeightOwner)
	var c vec.Counter
	_, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-8, 5000, &c)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}

// sparseNewDivergent builds [[I, 2I], [2I, I]] of size 2m.
func sparseNewDivergent(m int) *sparse.CSR {
	co := sparse.NewCOO(2*m, 2*m)
	for i := 0; i < m; i++ {
		co.Append(i, i, 1)
		co.Append(m+i, m+i, 1)
		co.Append(i, m+i, 2)
		co.Append(m+i, i, 2)
	}
	return co.ToCSR()
}

func TestSolveSequentialNoConvergence(t *testing.T) {
	// Converging but capped: a tightly dominant matrix stopped after two
	// iterations.
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 200, Margin: 0.05, Seed: 6})
	b, _ := gen.RHSForSolution(a)
	d, _ := NewDecomposition(200, 4, 0, WeightOwner)
	var c vec.Counter
	_, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-12, 2, &c)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

func TestSolveSequentialShapeErrors(t *testing.T) {
	a := gen.Tridiag(10, -1, 4, -1)
	d, _ := NewDecomposition(9, 3, 0, WeightOwner)
	var c vec.Counter
	if _, err := SolveSequential(a, make([]float64, 10), d, &splu.SparseLU{}, 1e-8, 10, &c); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// Theorem 1 hypothesis check: for strictly dominant matrices every band
// splitting satisfies ρ(|M⁻¹N|) < 1, and the sequential iteration converges
// to A⁻¹b (property-based).
func TestTheorem1Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		a := gen.RandomDominant(n, 3, 0.3, rng)
		nb := 2 + rng.Intn(3)
		if nb > n {
			nb = n
		}
		d, err := NewDecomposition(n, nb, 0, WeightOwner)
		if err != nil {
			return false
		}
		var c vec.Counter
		// Check ρ(|M⁻¹N|) < 1 for every band splitting.
		for _, band := range d.Bands {
			apply, err := iterative.AbsSplittingOperator(a, band.Start, band.End, &splu.SparseLU{}, &c)
			if err != nil {
				return false
			}
			rho, _ := iterative.PowerMethod(n, apply, 500, 1e-10)
			if rho >= 1 {
				return false
			}
		}
		b, xtrue := gen.RHSForSolution(a)
		res, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-10, 20000, &c)
		if err != nil {
			return false
		}
		for i := range res.X {
			if math.Abs(res.X[i]-xtrue[i]) > 1e-6*(1+math.Abs(xtrue[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// M-matrix class (paper Section 5.2): the Poisson matrix is an irreducibly
// dominant M-matrix; multisplitting must converge on it.
func TestMMatrixConvergence(t *testing.T) {
	a := gen.Poisson2D(20, 20)
	b, xtrue := gen.RHSForSolution(a)
	d, _ := NewDecomposition(a.Rows, 4, 10, WeightOwner)
	var c vec.Counter
	res, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-10, 50000, &c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xtrue[i]) > 1e-6*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xtrue[i])
		}
	}
}
