package splu

import (
	"math"
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
// band storage, the pivots, the two presized halves of the scatter map and
// the two structs and nothing else — no slice is grown — and Apply and Refresh
// allocate nothing. It also pins the premise of the band solve's cost on
// this shape: the elimination swaps no row, so U is ku = 16 wide, not kv = 32.
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
	if len(p.srcPos) == 0 || len(p.srcPos) == a.NNZ() {
		t.Fatalf("%d of %d entries in the band: the shape no longer exercises the extraction", len(p.srcPos), a.NNZ())
	}
	checkNoSwap(t, "build", p.lu, 16)
	held := uint64(p.Bytes()) + 8*uint64(p.N()+len(p.srcPos)+len(p.dst))
	bytes := after.TotalAlloc - before.TotalAlloc
	// The allocator rounds each of the four arrays up to its size class
	// (3.2 % on this shape); a slice grown by append would double that array.
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

// checkNoSwap fails unless lu's elimination swapped no row and left U ku
// wide. BandLU keeps its pivots and U's width unexported; reflection reads
// them without widening its API for a test.
func checkNoSwap(t *testing.T, stage string, lu *dense.BandLU, ku int) {
	t.Helper()
	v := reflect.ValueOf(lu).Elem()
	piv := v.FieldByName("piv")
	for k := 0; k < piv.Len(); k++ {
		if p := piv.Index(k).Int(); p != int64(k) {
			t.Fatalf("%s: row %d swapped with row %d", stage, k, p)
		}
	}
	if uw := v.FieldByName("uw").Int(); uw != int64(ku) {
		t.Fatalf("%s: U is %d wide, want ku = %d", stage, uw, ku)
	}
}
