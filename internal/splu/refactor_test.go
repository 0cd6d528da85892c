package splu

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// sameValues returns a copy of a sharing the pattern with its own value array.
func sameValues(a *sparse.CSR) *sparse.CSR {
	return &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr,
		ColInd: a.ColInd, Val: append([]float64(nil), a.Val...)}
}

// perturb returns a same-pattern copy with every value nudged
// deterministically; diagonal dominance is preserved by keeping the relative
// change small.
func perturb(a *sparse.CSR, eps float64) *sparse.CSR {
	b := sameValues(a)
	for p := range b.Val {
		b.Val[p] *= 1 + eps*float64(p%7-3)
	}
	return b
}

func TestRefactorUnchangedBitIdentical(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 200, Band: 8, PerRow: 5, Seed: 7})
	var c vec.Counter
	fact, err := (&SparseLU{}).Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}
	f := fact.(*sparseFactors)
	lx := append([]float64(nil), f.lx...)
	ux := append([]float64(nil), f.ux...)
	pinv := append([]int(nil), f.pinv...)
	solveFlops := f.SolveFlops()

	// A fallback would charge a full Factor, not RefactorFlops.
	want, c0 := f.RefactorFlops(), c.Flops()
	if err := f.Refactor(sameValues(a), &c); err != nil {
		t.Fatalf("Refactor: %v", err)
	}
	if c.Flops()-c0 != want {
		t.Fatal("unexpected fallback on unchanged values")
	}
	for p := range lx {
		if f.lx[p] != lx[p] {
			t.Fatalf("L value %d changed: %v vs %v", p, f.lx[p], lx[p])
		}
	}
	for p := range ux {
		if f.ux[p] != ux[p] {
			t.Fatalf("U value %d changed: %v vs %v", p, f.ux[p], ux[p])
		}
	}
	for i := range pinv {
		if f.pinv[i] != pinv[i] {
			t.Fatalf("pinv[%d] changed", i)
		}
	}
	if f.SolveFlops() != solveFlops {
		t.Fatalf("SolveFlops changed: %v vs %v", f.SolveFlops(), solveFlops)
	}
}

func TestRefactorChargesExactlyDeclaredFlops(t *testing.T) {
	a := gen.Poisson2D(15, 15)
	var c vec.Counter
	fact, err := (&SparseLU{}).Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}
	declared := fact.RefactorFlops()
	if declared <= 0 {
		t.Fatalf("RefactorFlops = %v", declared)
	}
	before := c.Flops()
	if err := fact.Refactor(sameValues(a), &c); err != nil {
		t.Fatal(err)
	}
	if got := c.Flops() - before; got != declared {
		t.Fatalf("Refactor charged %v, declared %v", got, declared)
	}
	// The refactor must be cheaper than the full factor (which also pays the
	// symbolic phase).
	if declared >= fact.FactorFlops() {
		t.Fatalf("refactor (%v flops) not cheaper than factor (%v)", declared, fact.FactorFlops())
	}
}

// refactorVsFreshCheck refactors fact with the perturbed matrix and demands
// its solution match a fresh factorization's to 1e-12.
func refactorVsFreshCheck(t *testing.T, d Direct, fact Factorization, ap *sparse.CSR) (charged float64) {
	t.Helper()
	var c vec.Counter
	if err := fact.Refactor(ap, &c); err != nil {
		t.Fatalf("%s: Refactor: %v", d.Name(), err)
	}
	charged = c.Flops()
	fresh, err := d.Factor(ap, &c)
	if err != nil {
		t.Fatalf("%s: fresh Factor: %v", d.Name(), err)
	}
	b, _ := gen.RHSForSolution(ap)
	xr := make([]float64, ap.Rows)
	xf := make([]float64, ap.Rows)
	fact.Solve(xr, b, &c)
	fresh.Solve(xf, b, &c)
	for i := range xr {
		if math.Abs(xr[i]-xf[i]) > 1e-12*(1+math.Abs(xf[i])) {
			t.Fatalf("%s: refactored solve differs at %d: %v vs %v", d.Name(), i, xr[i], xf[i])
		}
	}
	return charged
}

func TestRefactorPerturbedMatchesFreshFactor(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 250, Band: 10, PerRow: 6, Seed: 9})
	var c vec.Counter
	d := &SparseLU{}
	fact, err := d.Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}
	// A degraded pivot would charge a full Factor, not RefactorFlops.
	want := fact.RefactorFlops()
	if got := refactorVsFreshCheck(t, d, fact, perturb(a, 1e-3)); got != want {
		t.Fatalf("perturbation degraded the pivots: Refactor charged %v, RefactorFlops %v", got, want)
	}
}

func TestRefactorDenseFamily(t *testing.T) {
	cases := []struct {
		d Direct
		a *sparse.CSR
	}{
		{DenseSolver{}, gen.DiagDominant(gen.DiagDominantOpts{N: 60, Seed: 3})},
		{BandSolver{}, gen.Tridiag(100, -1, 4, -1)},
	}
	for _, tc := range cases {
		var c vec.Counter
		fact, err := tc.d.Factor(tc.a, &c)
		if err != nil {
			t.Fatalf("%s: %v", tc.d.Name(), err)
		}
		refactorVsFreshCheck(t, tc.d, fact, perturb(tc.a, 1e-4))
	}
}

func TestRefactorBandWithReorder(t *testing.T) {
	// The frozen RCM permutation must be re-applied to the new values.
	n := 80
	a := gen.Tridiag(n, -1, 4, -1)
	shuffle := make([]int, n)
	for i := range shuffle {
		shuffle[i] = (i*37 + 11) % n
	}
	scrambled := a.Permute(shuffle, shuffle)
	d := BandSolver{}
	var c vec.Counter
	fact, err := d.Factor(scrambled, &c)
	if err != nil {
		t.Fatal(err)
	}
	if fact.(*bandFact).perm == nil {
		t.Fatal("reorder did not engage; test needs the permuted path")
	}
	refactorVsFreshCheck(t, d, fact, perturb(scrambled, 1e-4))
}

func TestRefactorPivotDegradationFallback(t *testing.T) {
	// Column 0 of the original matrix pivots on the diagonal 4. The new
	// values shrink it to 1e-10 while the subdiagonal stays 1, violating
	// |piv| >= max|column|: Refactor must fall back to a full Factor
	// (fresh pivoting) rather than divide by the degenerate pivot.
	co := sparse.NewCOO(2, 2)
	co.Append(0, 0, 4)
	co.Append(0, 1, 1)
	co.Append(1, 0, 1)
	co.Append(1, 1, 3)
	a := co.ToCSR()
	var c vec.Counter
	fact, err := (&SparseLU{}).Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}

	bad := sameValues(a)
	for p := 0; p < bad.RowPtr[1]; p++ {
		if bad.ColInd[p] == 0 {
			bad.Val[p] = 1e-10
		}
	}
	// The fallback shows on the counter: it charges the full Factor of the
	// new values, not RefactorFlops.
	var full vec.Counter
	if _, err := (&SparseLU{}).Factor(bad, &full); err != nil {
		t.Fatal(err)
	}
	frozen, c0 := fact.RefactorFlops(), c.Flops()
	if err := fact.Refactor(bad, &c); err != nil {
		t.Fatalf("Refactor with degraded pivot: %v", err)
	}
	if got := c.Flops() - c0; got != full.Flops() || got == frozen {
		t.Fatalf("degraded Refactor charged %v, want the full Factor's %v (RefactorFlops %v)", got, full.Flops(), frozen)
	}
	// The adopted factors must solve the new system accurately.
	b, xtrue := gen.RHSForSolution(bad)
	x := make([]float64, 2)
	fact.Solve(x, b, &c)
	for i := range x {
		if math.Abs(x[i]-xtrue[i]) > 1e-9*(1+math.Abs(xtrue[i])) {
			t.Fatalf("post-fallback solve wrong at %d: %v vs %v", i, x[i], xtrue[i])
		}
	}
	// A later healthy Refactor keeps working on the adopted pivots.
	c0 = c.Flops()
	if err := fact.Refactor(sameValues(bad), &c); err != nil {
		t.Fatal(err)
	}
	if got := c.Flops() - c0; got != fact.RefactorFlops() {
		t.Fatalf("healthy Refactor charged %v, RefactorFlops %v", got, fact.RefactorFlops())
	}
}

func TestRefactorRejectsPatternMismatch(t *testing.T) {
	a := gen.Poisson2D(6, 6)
	var c vec.Counter
	fact, err := (&SparseLU{}).Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}
	small := gen.Poisson2D(5, 5)
	if err := fact.Refactor(small, &c); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	bigger := gen.DiagDominant(gen.DiagDominantOpts{N: a.Rows, PerRow: 9, Seed: 1})
	if bigger.NNZ() != a.NNZ() {
		if err := fact.Refactor(bigger, &c); err == nil {
			t.Fatal("nnz mismatch accepted")
		}
	}
}

func TestRefactorAndSolveAllocationFree(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Band: 8, PerRow: 5, Seed: 13})
	var c vec.Counter
	fact, err := (&SparseLU{}).Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}
	ap := perturb(a, 1e-4)
	if n := testing.AllocsPerRun(20, func() {
		if err := fact.Refactor(ap, &c); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Refactor allocates %v objects per run", n)
	}
	b := make([]float64, a.Rows)
	x := make([]float64, a.Rows)
	vec.Fill(b, 1)
	if n := testing.AllocsPerRun(20, func() {
		fact.Solve(x, b, &c)
	}); n != 0 {
		t.Fatalf("Solve allocates %v objects per run", n)
	}
}

// TestRefactorRejectsSameNnzDifferentPattern: equal shape and entry count do
// not make an equal pattern. Scattered through the frozen map, such a matrix
// used to yield garbage factors and no error.
func TestRefactorRejectsSameNnzDifferentPattern(t *testing.T) {
	csr := func(rowPtr, colInd []int) *sparse.CSR {
		val := make([]float64, len(colInd))
		for p := range val {
			val[p] = float64(p + 2)
		}
		return &sparse.CSR{Rows: 3, Cols: 3, RowPtr: rowPtr, ColInd: colInd, Val: val}
	}
	a := csr([]int{0, 2, 3, 5}, []int{0, 1, 2, 0, 2})
	fact, err := (&SparseLU{}).Factor(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fact.Refactor(sameValues(a), nil); err != nil {
		t.Fatalf("same pattern rejected: %v", err)
	}
	for name, other := range map[string]*sparse.CSR{
		"entry moved to another column": csr([]int{0, 2, 3, 5}, []int{0, 2, 2, 0, 2}),
		"same columns, other row ends":  csr([]int{0, 1, 3, 5}, []int{0, 1, 2, 0, 2}),
	} {
		if other.NNZ() != a.NNZ() {
			t.Fatalf("%s: test matrix has another entry count", name)
		}
		if err := fact.Refactor(other, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
