package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func sampleCSR(t *testing.T) *CSR {
	t.Helper()
	// [ 1 0 2 ]
	// [ 0 3 0 ]
	// [ 4 5 6 ]
	co := NewCOO(3, 3)
	co.Append(0, 0, 1)
	co.Append(0, 2, 2)
	co.Append(1, 1, 3)
	co.Append(2, 0, 4)
	co.Append(2, 1, 5)
	co.Append(2, 2, 6)
	return co.ToCSR()
}

func TestCOOToCSRBasic(t *testing.T) {
	m := sampleCSR(t)
	if m.NNZ() != 6 {
		t.Fatalf("nnz = %d, want 6", m.NNZ())
	}
	if m.At(0, 0) != 1 || m.At(0, 2) != 2 || m.At(1, 1) != 3 || m.At(2, 1) != 5 {
		t.Fatal("wrong entries after conversion")
	}
	if m.At(0, 1) != 0 || m.At(1, 0) != 0 {
		t.Fatal("missing entries should read as zero")
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	co := NewCOO(2, 2)
	co.Append(0, 0, 1)
	co.Append(0, 0, 2.5)
	co.Append(1, 1, 4)
	m := co.ToCSR()
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2 after duplicate merge", m.NNZ())
	}
	if m.At(0, 0) != 3.5 {
		t.Fatalf("summed duplicate = %v, want 3.5", m.At(0, 0))
	}
}

func TestCOOAppendOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCOO(2, 2).Append(2, 0, 1)
}

func TestMulVec(t *testing.T) {
	m := sampleCSR(t)
	x := []float64{1, 2, 3}
	y := make([]float64, 3)
	var c vec.Counter
	m.MulVec(y, x, &c)
	want := []float64{7, 6, 32}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	if c.Flops() != 12 {
		t.Fatalf("flops = %v, want 12", c.Flops())
	}
}

func TestMulVecSub(t *testing.T) {
	m := sampleCSR(t)
	x := []float64{1, 2, 3}
	y := []float64{10, 10, 40}
	var c vec.Counter
	m.MulVecSub(y, x, &c)
	want := []float64{3, 4, 8}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

// TestMulVecMatchesReference holds MulVec and MulVecSub, which sum two
// adjacent rows at once, to the one-row-at-a-time loop they replaced:
// Float64bits of every y[i] and the counted flops, on the shapes the pairing
// can get wrong (no rows, one row, an odd count, empty rows and the empty pairs
// MulVecSub skips, neighbours of unequal length either way round).
func TestMulVecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// fromLens builds a matrix whose row i stores lens[i] entries.
	fromLens := func(cols int, lens ...int) *CSR {
		m := &CSR{Rows: len(lens), Cols: cols, RowPtr: make([]int, len(lens)+1)}
		for i, n := range lens {
			for _, j := range rng.Perm(cols)[:n] {
				m.ColInd = append(m.ColInd, j)
				m.Val = append(m.Val, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-4)))
			}
			m.RowPtr[i+1] = len(m.ColInd)
		}
		return m
	}
	for name, m := range map[string]*CSR{
		"no rows":             fromLens(5),
		"one row":             fromLens(5, 4),
		"one empty row":       fromLens(5, 0),
		"odd count":           fromLens(9, 3, 7, 2, 9, 5),
		"empty rows":          fromLens(6, 0, 4, 0, 0, 3, 0),
		"short then long":     fromLens(12, 1, 12, 2, 11),
		"long then short":     fromLens(12, 12, 1, 11, 2, 7),
		"no columns":          fromLens(0, 0, 0, 0),
		"no entries":          fromLens(4, 0, 0, 0, 0, 0),
		"random, even count":  randomCSR(rng, 40, 31, 400),
		"random, odd count":   randomCSR(rng, 41, 57, 300),
		"random, mostly void": randomCSR(rng, 33, 20, 25),
	} {
		x := make([]float64, m.Cols)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y0 := make([]float64, m.Rows)
		for i := range y0 {
			y0[i] = rng.NormFloat64()
			if i%3 == 0 {
				y0[i] = math.Copysign(0, -1) // -0 − (+0) must stay -0, skipped or not
			}
		}
		want, wantSub := make([]float64, m.Rows), append([]float64(nil), y0...)
		for i := 0; i < m.Rows; i++ {
			s := 0.0
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				s += float64(m.Val[p] * x[m.ColInd[p]])
			}
			want[i] = s
			wantSub[i] -= s
		}
		got, gotSub := append([]float64(nil), y0...), append([]float64(nil), y0...)
		var c, cs vec.Counter
		m.MulVec(got, x, &c)
		m.MulVecSub(gotSub, x, &cs)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: MulVec y[%d] = %v, reference %v", name, i, got[i], want[i])
			}
			if math.Float64bits(gotSub[i]) != math.Float64bits(wantSub[i]) {
				t.Errorf("%s: MulVecSub y[%d] = %v, reference %v", name, i, gotSub[i], wantSub[i])
			}
		}
		if f := 2 * float64(m.NNZ()); c.Flops() != f || cs.Flops() != f {
			t.Errorf("%s: counted %v and %v flops, want %v", name, c.Flops(), cs.Flops(), f)
		}
	}
}

// TestMulVecShapePanics: both products refuse a vector of the wrong length,
// with the message that names the method and the shapes.
func TestMulVecShapePanics(t *testing.T) {
	m := sampleCSR(t)
	for want, call := range map[string]func(){
		"sparse: MulVec shape: A is 3x3, len(x)=2 len(y)=3":    func() { m.MulVec(make([]float64, 3), make([]float64, 2), nil) },
		"sparse: MulVec shape: A is 3x3, len(x)=3 len(y)=4":    func() { m.MulVec(make([]float64, 4), make([]float64, 3), nil) },
		"sparse: MulVecSub shape: A is 3x3, len(x)=4 len(y)=3": func() { m.MulVecSub(make([]float64, 3), make([]float64, 4), nil) },
		"sparse: MulVecSub shape: A is 3x3, len(x)=3 len(y)=2": func() { m.MulVecSub(make([]float64, 2), make([]float64, 3), nil) },
	} {
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("panic %v, want %q", got, want)
				}
			}()
			call()
		}()
	}
}

func TestSubmatrix(t *testing.T) {
	m := sampleCSR(t)
	s := m.Submatrix(1, 3, 0, 2)
	if s.Rows != 2 || s.Cols != 2 {
		t.Fatalf("shape %dx%d, want 2x2", s.Rows, s.Cols)
	}
	if s.At(0, 1) != 3 || s.At(1, 0) != 4 || s.At(1, 1) != 5 {
		t.Fatal("wrong submatrix entries")
	}
	if s.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", s.NNZ())
	}
	empty := m.Submatrix(0, 0, 0, 3)
	if empty.Rows != 0 || empty.NNZ() != 0 {
		t.Fatal("empty submatrix not empty")
	}
}

func TestSelectColumns(t *testing.T) {
	m := sampleCSR(t)
	s := m.SelectColumns(0, 3, []int{0, 2})
	if s.Rows != 3 || s.Cols != 2 {
		t.Fatalf("shape %dx%d", s.Rows, s.Cols)
	}
	if s.At(0, 0) != 1 || s.At(0, 1) != 2 || s.At(2, 0) != 4 || s.At(2, 1) != 6 {
		t.Fatal("wrong selected entries")
	}
	if s.At(1, 0) != 0 || s.At(1, 1) != 0 {
		t.Fatal("row 1 should have no selected entries")
	}
}

func TestColumnsUsed(t *testing.T) {
	m := sampleCSR(t)
	got := m.ColumnsUsed(0, 2, 0, 3)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("ColumnsUsed = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ColumnsUsed = %v, want %v", got, want)
		}
	}
	got = m.ColumnsUsed(1, 2, 0, 3)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("ColumnsUsed row1 = %v, want [1]", got)
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := sampleCSR(t)
	tt := m.Transpose().Transpose()
	if !Equal(m, tt) {
		t.Fatal("double transpose differs from original")
	}
	tr := m.Transpose()
	if tr.At(0, 2) != 4 || tr.At(2, 0) != 2 {
		t.Fatal("transpose has wrong entries")
	}
}

func TestCSCConversionRoundTrip(t *testing.T) {
	m := sampleCSR(t)
	csc := m.ToCSC()
	// A CSC matrix's arrays read as CSR are its transpose.
	back := (&CSR{Rows: csc.Cols, Cols: csc.Rows, RowPtr: csc.ColPtr, ColInd: csc.RowInd, Val: csc.Val}).Transpose()
	if !Equal(m, back) {
		t.Fatal("CSR->CSC->CSR changed the matrix")
	}
}

func TestPermute(t *testing.T) {
	m := sampleCSR(t)
	rowPerm := []int{2, 0, 1} // old row 0 -> new row 2, etc.
	p := m.Permute(rowPerm, nil)
	if p.At(2, 0) != 1 || p.At(2, 2) != 2 || p.At(0, 1) != 3 {
		t.Fatal("row permutation wrong")
	}
	colPerm := []int{1, 2, 0}
	q := m.Permute(nil, colPerm)
	if q.At(0, 1) != 1 || q.At(0, 0) != 2 || q.At(1, 2) != 3 {
		t.Fatal("column permutation wrong")
	}
	// Identity permutations preserve the matrix.
	id := []int{0, 1, 2}
	if !Equal(m, m.Permute(id, id)) {
		t.Fatal("identity permutation changed the matrix")
	}
}

func TestDiagonalAndBandwidth(t *testing.T) {
	m := sampleCSR(t)
	d := m.Diagonal()
	if d[0] != 1 || d[1] != 3 || d[2] != 6 {
		t.Fatalf("diagonal = %v", d)
	}
	if bw := m.Bandwidth(); bw != 2 {
		t.Fatalf("bandwidth = %d, want 2", bw)
	}
	if bw := Identity(5).Bandwidth(); bw != 0 {
		t.Fatalf("identity bandwidth = %d", bw)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	var c vec.Counter
	id.MulVec(y, x, &c)
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("identity MulVec changed vector")
		}
	}
}

func TestPermHelpers(t *testing.T) {
	p := []int{2, 0, 1}
	if !IsPerm(p) {
		t.Fatal("valid permutation rejected")
	}
	if IsPerm([]int{0, 0, 1}) || IsPerm([]int{0, 3, 1}) {
		t.Fatal("invalid permutation accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := sampleCSR(t)
	cl := m.Clone()
	cl.Val[0] = 99
	if m.Val[0] == 99 {
		t.Fatal("CSR Clone aliases values")
	}
}

func randomCSR(rng *rand.Rand, rows, cols, nnz int) *CSR {
	co := NewCOO(rows, cols)
	for k := 0; k < nnz; k++ {
		co.Append(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
	}
	return co.ToCSR()
}

// Property: (A+A)ᵀ round trips, submatrix of the whole equals the original,
// and MulVec distributes over scaling.
func TestCSRProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(30)
		cols := 1 + rng.Intn(30)
		m := randomCSR(rng, rows, cols, rng.Intn(100))
		if !Equal(m, m.Submatrix(0, rows, 0, cols)) {
			return false
		}
		if !Equal(m, m.Transpose().Transpose()) {
			return false
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := make([]float64, rows)
		y2 := make([]float64, rows)
		var c vec.Counter
		m.MulVec(y1, x, &c)
		x2 := make([]float64, cols)
		for i := range x {
			x2[i] = 2 * x[i]
		}
		m.MulVec(y2, x2, &c)
		for i := range y1 {
			if math.Abs(2*y1[i]-y2[i]) > 1e-9*(1+math.Abs(y2[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmatrixMap(t *testing.T) {
	a := randomCSR(rand.New(rand.NewSource(77)), 30, 40, 150)
	r0, r1, c0, c1 := 4, 21, 7, 33
	sub := a.Submatrix(r0, r1, c0, c1)
	mp := a.SubmatrixMap(r0, r1, c0, c1)
	if len(mp) != sub.NNZ() {
		t.Fatalf("map length %d, submatrix nnz %d", len(mp), sub.NNZ())
	}
	// Refreshing through the map must reproduce extraction from new values.
	b := a.Clone()
	for p := range b.Val {
		b.Val[p] = float64(p) + 0.5
	}
	want := b.Submatrix(r0, r1, c0, c1)
	for k, p := range mp {
		sub.Val[k] = b.Val[p]
	}
	if !Equal(sub, want) {
		t.Fatal("map refresh differs from fresh Submatrix")
	}
}

func TestSelectColumnsMap(t *testing.T) {
	a := randomCSR(rand.New(rand.NewSource(78)), 25, 50, 160)
	cols := []int{2, 9, 10, 23, 41, 49}
	r0, r1 := 3, 22
	sub := a.SelectColumns(r0, r1, cols)
	mp := a.SelectColumnsMap(r0, r1, cols)
	if len(mp) != sub.NNZ() {
		t.Fatalf("map length %d, selection nnz %d", len(mp), sub.NNZ())
	}
	b := a.Clone()
	for p := range b.Val {
		b.Val[p] = -float64(p) - 1
	}
	want := b.SelectColumns(r0, r1, cols)
	for k, p := range mp {
		sub.Val[k] = b.Val[p]
	}
	if !Equal(sub, want) {
		t.Fatal("map refresh differs from fresh SelectColumns")
	}
}

// Long unsorted rows exercise the sort.Sort fallback; short ones the
// insertion sort. Both must produce strictly sorted, correctly paired rows.
func TestSortRowsShortAndLong(t *testing.T) {
	for _, rowLen := range []int{3, shortRowSort, shortRowSort + 40} {
		co := NewCOO(2, rowLen)
		for j := rowLen - 1; j >= 0; j-- {
			co.Append(0, j, float64(j)*10)
			co.Append(1, (j*13+5)%rowLen, float64((j*13+5)%rowLen)+0.25)
		}
		m := co.ToCSR()
		for i := 0; i < m.Rows; i++ {
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				j := m.ColInd[p]
				if p > m.RowPtr[i] && j <= m.ColInd[p-1] {
					t.Fatalf("rowLen %d: row %d not strictly sorted", rowLen, i)
				}
				want := float64(j) * 10
				if i == 1 {
					want = float64(j) + 0.25
				}
				if m.Val[p] != want {
					t.Fatalf("rowLen %d: value/index pair broken at (%d,%d): %v", rowLen, i, j, m.Val[p])
				}
			}
		}
	}
}
