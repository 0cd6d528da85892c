package splu

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/vec"
)

func solveCheck(t *testing.T, d Direct, a *sparse.CSR, tol float64) {
	t.Helper()
	b, xtrue := gen.RHSForSolution(a)
	var c vec.Counter
	f, err := d.Factor(a, &c)
	if err != nil {
		t.Fatalf("%s Factor: %v", d.Name(), err)
	}
	x := make([]float64, a.Rows)
	f.Solve(x, b, &c)
	for i := range x {
		if math.Abs(x[i]-xtrue[i]) > tol*(1+math.Abs(xtrue[i])) {
			t.Fatalf("%s: x[%d] = %v, want %v", d.Name(), i, x[i], xtrue[i])
		}
	}
	if f.FactorFlops() < 0 {
		t.Fatalf("%s: negative factor flops", d.Name())
	}
	if f.Bytes() <= 0 {
		t.Fatalf("%s: non-positive Bytes", d.Name())
	}
}

func TestSparseLUPoisson(t *testing.T) {
	a := gen.Poisson2D(12, 13)
	solveCheck(t, &SparseLU{}, a, 1e-8)
}

func TestSparseLUNaturalOrder(t *testing.T) {
	a := gen.Poisson2D(8, 8)
	solveCheck(t, &SparseLU{}, a, 1e-8)
}

func TestSparseLUDiagDominant(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Seed: 5})
	solveCheck(t, &SparseLU{}, a, 1e-8)
}

func TestSparseLUCageLike(t *testing.T) {
	a := gen.CageLike(400, 9)
	solveCheck(t, &SparseLU{}, a, 1e-8)
}

func TestSparseLUNeedsPivoting(t *testing.T) {
	// Zero diagonal forces off-diagonal pivots.
	co := sparse.NewCOO(3, 3)
	co.Append(0, 1, 2)
	co.Append(0, 2, 1)
	co.Append(1, 0, 3)
	co.Append(1, 2, -1)
	co.Append(2, 0, 1)
	co.Append(2, 1, 1)
	a := co.ToCSR()
	solveCheck(t, &SparseLU{}, a, 1e-10)
}

func TestSparseLUSingular(t *testing.T) {
	co := sparse.NewCOO(2, 2)
	co.Append(0, 0, 1)
	co.Append(1, 0, 2)
	var c vec.Counter
	if _, err := (&SparseLU{}).Factor(co.ToCSR(), &c); err == nil {
		t.Fatal("singular matrix accepted")
	}
}

func TestSparseLUNonSquare(t *testing.T) {
	co := sparse.NewCOO(2, 3)
	var c vec.Counter
	if _, err := (&SparseLU{}).Factor(co.ToCSR(), &c); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestSparseLUOneByOne(t *testing.T) {
	co := sparse.NewCOO(1, 1)
	co.Append(0, 0, 4)
	var c vec.Counter
	f, err := (&SparseLU{}).Factor(co.ToCSR(), &c)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 1)
	f.Solve(x, []float64{8}, &c)
	if x[0] != 2 {
		t.Fatalf("x = %v, want 2", x[0])
	}
}

func TestSparseLUThresholdPivoting(t *testing.T) {
	// Threshold 1: a diagonal entry that ties the largest candidate is the
	// pivot, a smaller one is not. The reach of column 0 lists row 1 first,
	// so the tie is the diagonal rule's to break.
	for _, tc := range []struct {
		diag float64
		want int // pivotal position of row 0
	}{{2, 0}, {1.5, 1}} {
		co := sparse.NewCOO(2, 2)
		co.Append(0, 0, tc.diag)
		co.Append(0, 1, 1)
		co.Append(1, 0, -2)
		co.Append(1, 1, 3)
		a := co.ToCSR()
		f, err := (&SparseLU{}).Factor(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.(*sparseFactors).pinv[0]; got != tc.want {
			t.Errorf("diagonal %v against -2: row 0 pivots at %d, want %d", tc.diag, got, tc.want)
		}
		solveCheck(t, &SparseLU{}, a, 1e-12)
	}
	// The result must still be accurate on a dominant matrix.
	solveCheck(t, &SparseLU{}, gen.DiagDominant(gen.DiagDominantOpts{N: 200, Seed: 11}), 1e-8)
}

func TestSparseLUChargesFlops(t *testing.T) {
	a := gen.Poisson2D(10, 10)
	var c vec.Counter
	f, err := (&SparseLU{}).Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Flops() <= 0 || c.Flops() != f.FactorFlops() {
		t.Fatalf("counter %v vs factor flops %v", c.Flops(), f.FactorFlops())
	}
	before := c.Flops()
	x := make([]float64, a.Rows)
	b := make([]float64, a.Rows)
	f.Solve(x, b, &c)
	if c.Flops() <= before {
		t.Fatal("Solve charged no flops")
	}
}

func TestSparseLUFillCounts(t *testing.T) {
	a := gen.Poisson2D(15, 15)
	var c vec.Counter
	f, err := (&SparseLU{}).Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}
	sf := f.(*sparseFactors)
	lnz, unz := sf.NNZFactors()
	if lnz < a.NNZ()/2 || unz < a.NNZ()/2 {
		t.Fatalf("factors suspiciously sparse: lnz=%d unz=%d, nnz(A)=%d", lnz, unz, a.NNZ())
	}
}

func TestDenseSolver(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 60, Seed: 3})
	solveCheck(t, DenseSolver{}, a, 1e-8)
}

func TestBandSolverPlain(t *testing.T) {
	a := gen.Tridiag(100, -1, 4, -1)
	solveCheck(t, BandSolver{}, a, 1e-9)
}

func TestBandSolverWithReorder(t *testing.T) {
	n := 80
	a := gen.Tridiag(n, -1, 4, -1)
	rng := rand.New(rand.NewSource(8))
	shuffle := rng.Perm(n)
	scrambled := a.Permute(shuffle, shuffle)
	solveCheck(t, BandSolver{}, scrambled, 1e-9)
}

func TestAllSolversAgree(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 90, Band: 5, Seed: 21})
	b, _ := gen.RHSForSolution(a)
	solvers := []Direct{&SparseLU{}, DenseSolver{}, BandSolver{}}
	sols := make([][]float64, len(solvers))
	for si, d := range solvers {
		var c vec.Counter
		f, err := d.Factor(a, &c)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		x := make([]float64, a.Rows)
		f.Solve(x, b, &c)
		sols[si] = x
	}
	for si := 1; si < len(sols); si++ {
		for i := range sols[0] {
			if math.Abs(sols[0][i]-sols[si][i]) > 1e-7 {
				t.Fatalf("solver %s disagrees with %s at %d: %v vs %v",
					solvers[si].Name(), solvers[0].Name(), i, sols[si][i], sols[0][i])
			}
		}
	}
}

// Property: sparse LU solves random strictly dominant systems to high accuracy.
func TestSparseLUProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		a := gen.RandomDominant(n, 1+rng.Intn(6), 0.2, rng)
		b, xtrue := gen.RHSForSolution(a)
		var c vec.Counter
		fct, err := (&SparseLU{}).Factor(a, &c)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		fct.Solve(x, b, &c)
		for i := range x {
			if math.Abs(x[i]-xtrue[i]) > 1e-6*(1+math.Abs(xtrue[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Repeated solves with one factorization must all be correct (the
// multisplitting iteration relies on this, paper Remark 4).
func TestFactorOnceSolveMany(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 150, Seed: 33})
	var c vec.Counter
	f, err := (&SparseLU{}).Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		xtrue := make([]float64, a.Rows)
		for i := range xtrue {
			xtrue[i] = rng.NormFloat64()
		}
		b := make([]float64, a.Rows)
		a.MulVec(b, xtrue, &c)
		x := make([]float64, a.Rows)
		f.Solve(x, b, &c)
		for i := range x {
			if math.Abs(x[i]-xtrue[i]) > 1e-7*(1+math.Abs(xtrue[i])) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xtrue[i])
			}
		}
	}
}

// heldBytes is what a sparse factorization keeps alive once Factor returns:
// the factor arrays at their capacity (ui, the rows of U's indexed columns,
// included), the per-column U starts, the row permutation, the Refactor scatter
// map and the two scratch vectors.
func (f *sparseFactors) heldBytes() uint64 {
	idx := cap(f.li) + cap(f.ui) + cap(f.us)
	ints := cap(f.lp) + cap(f.up) + cap(f.pinv) + cap(f.acp) + cap(f.ari) + cap(f.avp)
	floats := cap(f.lx) + cap(f.ux) + cap(f.work) + cap(f.rwork)
	return uint64(4*idx + 8*ints + 8*floats)
}

// TestSparseLUFactorAllocBudget pins the factor-growth rule on the band shape
// of the lan_sync_wideband workload (one of eight bands of an n=10000, Band
// 120 matrix plus overlap, factored the way core does: zero-value SparseLU),
// where fill makes the factors sixteen times the input. Everything Factor
// allocates — work vectors, the DFS pruning state, the CSC copy and every
// outgrown factor array included — must stay within 1.55 times what the
// result keeps (measured 4 515 040 bytes to keep 2 944 888, 1.533), in a
// number of objects that does not depend on n (measured 31). Every U column
// of this shape is a run, so ui keeps only its initial room for one column.
// (Storing every U row, as before run columns dropped theirs, read 1.599 and
// 33; growing by append alone allocates five times the final factors.)
func TestSparseLUFactorAllocBudget(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 1330, Band: 120, PerRow: 10, Margin: 0.002, Negative: true, Seed: 1})
	s := &SparseLU{}
	var before, after runtime.MemStats
	// The counters are process-wide. FreeOSMemory collects and also returns
	// the freed pages at once, so the runtime's background scavenger (its
	// timer allocates) has nothing left to do during the measurement. After
	// a plain GC, a run soon after an earlier one counted up to 38 objects.
	debug.FreeOSMemory()
	runtime.ReadMemStats(&before)
	fact, err := s.Factor(a, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	f := fact.(*sparseFactors)
	if l, u := f.NNZFactors(); l+u < 10*a.NNZ() {
		t.Fatalf("shape has no heavy fill (%d factor entries from %d): the test no longer exercises growth", l+u, a.NNZ())
	}
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	held := f.heldBytes()
	t.Logf("Factor allocated %d bytes in %d objects to keep %d (%.3fx)", bytes, objects, held, float64(bytes)/float64(held))
	if 100*bytes > 155*held {
		t.Errorf("Factor allocated %d bytes to keep %d (%.3fx), budget is 1.55x", bytes, held, float64(bytes)/float64(held))
	}
	if objects > 32 {
		t.Errorf("Factor allocated %d objects, budget is 32", objects)
	}

	b := make([]float64, a.Rows)
	x := make([]float64, a.Rows)
	vec.Fill(b, 1)
	if n := testing.AllocsPerRun(10, func() { f.Solve(x, b, nil) }); n != 0 {
		t.Errorf("Solve allocates %v objects per run", n)
	}
	// The condition estimator calls SolveT in a loop.
	if n := testing.AllocsPerRun(10, func() { f.SolveT(x, b, nil) }); n != 0 {
		t.Errorf("SolveT allocates %v objects per run", n)
	}
	ap := perturb(a, 1e-6)
	if n := testing.AllocsPerRun(5, func() {
		if err := f.Refactor(ap, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Refactor allocates %v objects per run", n)
	}
}

func TestSparseLURejectsOrderBeyondInt32(t *testing.T) {
	n := math.MaxInt32
	if n++; n < 0 {
		t.Skip("int is 32 bits: no such order exists")
	}
	// Only the shape is read before the check, so no arrays are needed.
	huge := &sparse.CSR{Rows: n, Cols: n}
	if _, err := (&SparseLU{}).Factor(huge, nil); err == nil {
		t.Fatal("order beyond the int32 index range accepted")
	}
}
