package splu

import (
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dense"
	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// TestBandPreconditionerExactWhenWide pins the clamping contract: a width at
// or above the matrix bandwidth makes M = A, so Apply is an exact solve.
func TestBandPreconditionerExactWhenWide(t *testing.T) {
	a := gen.Tridiag(80, -1, 4, -1)
	b, xtrue := gen.RHSForSolution(a)
	var c vec.Counter
	m, err := NewBandPreconditioner(a, 50, &c)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	m.Apply(x, b, &c)
	for i := range x {
		if math.Abs(x[i]-xtrue[i]) > 1e-10*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xtrue[i])
		}
	}
}

// TestBandPreconditionerMatchesBandSolve checks the narrow extraction: Apply
// must equal an exact solve of the band portion of A, built independently.
func TestBandPreconditionerMatchesBandSolve(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 120, Band: 9, PerRow: 6, Seed: 7})
	const width = 3
	var c vec.Counter
	m, err := NewBandPreconditioner(a, width, &c)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the band of A as a CSR, solved exactly.
	co := sparse.NewCOO(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := a.ColInd[p]; j >= i-width && j <= i+width {
				co.Append(i, j, a.Val[p])
			}
		}
	}
	fact, err := (&SparseLU{}).Factor(co.ToCSR(), &c)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, a.Rows)
	for i := range r {
		r[i] = math.Sin(float64(i) * 0.3)
	}
	got := make([]float64, a.Rows)
	want := make([]float64, a.Rows)
	m.Apply(got, r, &c)
	fact.Solve(want, r, &c)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
			t.Fatalf("apply[%d] = %v, band solve %v", i, got[i], want[i])
		}
	}
}

// TestBandPreconditionerRefresh checks the frozen-map refresh: refilling
// from a same-pattern matrix must match a preconditioner built fresh from
// it, bitwise, and ApplyFlops must be charged exactly.
func TestBandPreconditionerRefresh(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 100, Band: 7, PerRow: 5, Seed: 9})
	var c vec.Counter
	m, err := NewBandPreconditioner(a, 2, &c)
	if err != nil {
		t.Fatal(err)
	}
	a2 := a.Clone()
	for i := range a2.Val {
		a2.Val[i] *= 1.25
	}
	if err := m.Refresh(a2, &c); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewBandPreconditioner(a2, 2, &c)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, a.Rows)
	for i := range r {
		r[i] = float64(i%13) - 6
	}
	got := make([]float64, a.Rows)
	want := make([]float64, a.Rows)
	var gc, wc vec.Counter
	m.Apply(got, r, &gc)
	fresh.Apply(want, r, &wc)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("refreshed apply differs from fresh at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if gc.Flops() != m.ApplyFlops() || gc.Flops() != wc.Flops() {
		t.Fatalf("apply flops %g, declared %g (fresh %g)", gc.Flops(), m.ApplyFlops(), wc.Flops())
	}
	if m.Bytes() != fresh.Bytes() || m.Bytes() <= 0 {
		t.Fatalf("bytes %d vs fresh %d", m.Bytes(), fresh.Bytes())
	}
}

func TestBandPreconditionerErrors(t *testing.T) {
	var c vec.Counter
	// Singular band: zero diagonal with no off-band coupling inside width 0
	// territory — width 1 band of this matrix has a zero pivot column.
	co := sparse.NewCOO(3, 3)
	co.Append(0, 2, 1)
	co.Append(1, 1, 1)
	co.Append(2, 0, 1)
	if _, err := NewBandPreconditioner(co.ToCSR(), 1, &c); err == nil {
		t.Fatal("singular band accepted")
	}
	// Invalid width.
	a := gen.Tridiag(10, -1, 4, -1)
	if _, err := NewBandPreconditioner(a, -1, &c); err == nil {
		t.Fatal("negative width accepted")
	}
	// Refresh with a shorter Val slice than the frozen map expects.
	m, err := NewBandPreconditioner(a, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	small := gen.Tridiag(4, -1, 4, -1)
	if err := m.Refresh(small, &c); err == nil {
		t.Fatal("refresh from mismatched matrix accepted")
	}
}

// TestBandPreconditionerRefreshRejectsOtherPattern: equal shape and entry
// count do not make an equal pattern. Refilled through the frozen scatter
// map, a matrix whose columns are shifted used to give a wrong M and no
// error.
func TestBandPreconditionerRefreshRejectsOtherPattern(t *testing.T) {
	a := gen.Tridiag(10, -1, 4, -1)
	m, err := NewBandPreconditioner(a, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	shifted := a.Clone()
	// Row 0 stores columns 0 and 1: move the second entry out to column 2.
	shifted.ColInd[1] = 2
	if shifted.NNZ() != a.NNZ() {
		t.Fatal("test matrix has another entry count")
	}
	if err := m.Refresh(shifted, nil); err == nil {
		t.Fatal("refresh from a same-nnz matrix with a shifted column accepted")
	}
	if err := m.Refresh(a, nil); err != nil {
		t.Fatalf("same pattern rejected after a rejection: %v", err)
	}
}

// TestBandPrecondAllocBudget pins the preconditioner's allocations on the
// band shape of the wan_async_twostage workload (one of ten bands of an
// n=12000, Band 220 matrix, preconditioner width 16): a build allocates the
// band storage, the pivots, the three arrays of the factors' solve form and
// the three structs and nothing else — no slice is grown — and Apply and
// Refresh allocate nothing. It also pins the premise of the band solve's cost
// on this shape: the elimination swaps no row, so U's non-zeros lie within
// ku = 16 of the diagonal, and most of the band's slots hold exact zeros.
func TestBandPrecondAllocBudget(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 1200, Band: 220, PerRow: 10, Negative: true, Seed: 1})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pc, err := NewBandPreconditioner(a, 16, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	p := pc.(*bandPrecond)
	ptr, idx := solveForm(p.lu)
	if len(idx) == 0 || 4*len(idx) > len(p.lu.Band().Data) {
		t.Fatalf("solve form holds %d of %d slots: the shape no longer exercises a sparse band", len(idx), len(p.lu.Band().Data))
	}
	checkNoSwap(t, "build", p.lu, 16)
	// Element sizes, not struct sizes: the pivots are ints (4 bytes on 386),
	// the solve form's bounds and indices int32 and its values float64.
	held := uint64(p.Bytes()) + uint64(bits.UintSize/8*p.N()) + uint64(4*len(ptr)+(4+8)*len(idx))
	bytes := after.TotalAlloc - before.TotalAlloc
	// The allocator rounds each of the five arrays up to its size class
	// (3.0 % on this shape, 2.1 % on 386); a slice grown by append would
	// double that array.
	if bytes > held+held/20 {
		t.Errorf("build allocated %d bytes to keep %d, budget is +5%%", bytes, held)
	}
	if objects := testing.AllocsPerRun(3, func() { _, _ = NewBandPreconditioner(a, 16, nil) }); objects > 8 {
		t.Errorf("build allocated %v objects, budget is 8", objects)
	}
	x, r := make([]float64, a.Rows), make([]float64, a.Rows)
	vec.Fill(r, 1)
	if n := testing.AllocsPerRun(10, func() { p.Apply(x, r, nil) }); n != 0 {
		t.Errorf("Apply allocates %v objects per run", n)
	}
	if n := testing.AllocsPerRun(5, func() {
		if err := p.Refresh(a, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Refresh allocates %v objects per run", n)
	}
	checkNoSwap(t, "refresh", p.lu, 16)
}

// solveForm returns the bounds and the indices of lu's solve form: L's
// columns at ptr[k]..ptr[k+1], U's rows at ptr[n+i]..ptr[n+i+1]. BandLU keeps
// its solve form and pivots unexported; reflection reads them without
// widening its API for a test.
func solveForm(lu *dense.BandLU) (ptr, idx []int32) {
	v := reflect.ValueOf(lu).Elem()
	read := func(name string) []int32 {
		f := v.FieldByName(name)
		out := make([]int32, f.Len())
		for k := range out {
			out[k] = int32(f.Index(k).Int())
		}
		return out
	}
	return read("ptr"), read("idx")
}

// checkNoSwap fails unless lu's elimination swapped no row and its solve form
// lists no U entry farther than ku right of the diagonal.
func checkNoSwap(t *testing.T, stage string, lu *dense.BandLU, ku int) {
	t.Helper()
	piv := reflect.ValueOf(lu).Elem().FieldByName("piv")
	for k := 0; k < piv.Len(); k++ {
		if p := piv.Index(k).Int(); p != int64(k) {
			t.Fatalf("%s: row %d swapped with row %d", stage, k, p)
		}
	}
	ptr, idx := solveForm(lu)
	n := piv.Len()
	for i := 0; i < n; i++ {
		for _, j := range idx[ptr[n+i]:ptr[n+i+1]] {
			if int(j)-i > ku {
				t.Fatalf("%s: U(%d,%d) lies past ku = %d", stage, i, j, ku)
			}
		}
	}
}
