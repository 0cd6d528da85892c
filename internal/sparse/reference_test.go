package sparse

// Permute, SelectColumns and SelectColumnsMap as they were before: Permute
// through a COO triplet list and ToCSR's re-sort, the column selections
// through a map from original to selected column. Kept verbatim (bar the
// receiver becoming the first argument) as the oracle the production code
// must reproduce bit for bit, and as the baseline of BenchmarkPermute and
// BenchmarkSelectColumns.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

func refPermute(m *CSR, rowPerm, colPerm []int) *CSR {
	if rowPerm != nil && len(rowPerm) != m.Rows {
		panic("sparse: Permute row permutation size mismatch")
	}
	if colPerm != nil && len(colPerm) != m.Cols {
		panic("sparse: Permute column permutation size mismatch")
	}
	co := NewCOO(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		ni := i
		if rowPerm != nil {
			ni = rowPerm[i]
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			nj := m.ColInd[p]
			if colPerm != nil {
				nj = colPerm[nj]
			}
			co.Append(ni, nj, m.Val[p])
		}
	}
	return co.ToCSR()
}

func refSelectColumns(m *CSR, r0, r1 int, cols []int) *CSR {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic("sparse: SelectColumns row range out of bounds")
	}
	for k := 1; k < len(cols); k++ {
		if cols[k] <= cols[k-1] {
			panic("sparse: SelectColumns columns not strictly increasing")
		}
	}
	if len(cols) > 0 && (cols[0] < 0 || cols[len(cols)-1] >= m.Cols) {
		panic("sparse: SelectColumns column out of range")
	}
	newCol := make(map[int]int, len(cols))
	for k, j := range cols {
		newCol[j] = k
	}
	rows := r1 - r0
	rowPtr := make([]int, rows+1)
	nnz := 0
	for p := m.RowPtr[r0]; p < m.RowPtr[r1]; p++ {
		if _, ok := newCol[m.ColInd[p]]; ok {
			nnz++
		}
	}
	colInd := make([]int, 0, nnz)
	val := make([]float64, 0, nnz)
	for i := r0; i < r1; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if k, ok := newCol[m.ColInd[p]]; ok {
				colInd = append(colInd, k)
				val = append(val, m.Val[p])
			}
		}
		rowPtr[i-r0+1] = len(val)
	}
	return &CSR{Rows: rows, Cols: len(cols), RowPtr: rowPtr, ColInd: colInd, Val: val}
}

func refSelectColumnsMap(m *CSR, r0, r1 int, cols []int) []int {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic("sparse: SelectColumnsMap row range out of bounds")
	}
	newCol := make(map[int]int, len(cols))
	for k, j := range cols {
		newCol[j] = k
	}
	var out []int
	for i := r0; i < r1; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if _, ok := newCol[m.ColInd[p]]; ok {
				out = append(out, p)
			}
		}
	}
	return out
}

// The external test package (workload_test.go), which builds the workloads'
// matrices with gen and core, reaches the references through these.
var (
	RefPermute          = refPermute
	RefSelectColumns    = refSelectColumns
	RefSelectColumnsMap = refSelectColumnsMap
)

// SameBits reports how a and b differ in shape, RowPtr, ColInd or the bits
// of Val, or nil when they are the same matrix bit for bit.
func SameBits(a, b *CSR) error {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Errorf("shape %dx%d, reference %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if len(a.RowPtr) != len(b.RowPtr) || len(a.ColInd) != len(b.ColInd) || len(a.Val) != len(b.Val) {
		return fmt.Errorf("array lengths %d/%d/%d, reference %d/%d/%d",
			len(a.RowPtr), len(a.ColInd), len(a.Val), len(b.RowPtr), len(b.ColInd), len(b.Val))
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return fmt.Errorf("RowPtr[%d] = %d, reference %d", i, a.RowPtr[i], b.RowPtr[i])
		}
	}
	for p := range a.ColInd {
		if a.ColInd[p] != b.ColInd[p] {
			return fmt.Errorf("ColInd[%d] = %d, reference %d", p, a.ColInd[p], b.ColInd[p])
		}
		if math.Float64bits(a.Val[p]) != math.Float64bits(b.Val[p]) {
			return fmt.Errorf("Val[%d] = %v, reference %v", p, a.Val[p], b.Val[p])
		}
	}
	return nil
}

// permCases returns, for one side of length n, the permutations the oracle
// tests try: none, the identity and a random one.
func permCases(rng *rand.Rand, n int) [3][]int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return [3][]int{nil, id, rng.Perm(n)}
}

// oracleMatrices returns the matrices of one seed of the oracle tests:
// random ones, square and not, with rows short enough for the insertion sort
// and long enough for sort.Sort, empty rows and empty columns, plus the
// degenerate shapes.
func oracleMatrices(rng *rand.Rand) []*CSR {
	return []*CSR{
		NewCOO(0, 0).ToCSR(),
		randomCSR(rng, 1, 1, 1),
		NewCOO(4, 6).ToCSR(),
		randomCSR(rng, 40, 40, 300),
		randomCSR(rng, 57, 13, 200),
		randomCSR(rng, 9, 80, 250),
		randomCSR(rng, 12, 90, 900),
		randomCSR(rng, 50, 50, 20),
	}
}

// TestPermuteMatchesReference: Permute writes the matrix the COO-built
// reference wrote — RowPtr, ColInd and the bits of every value — for every
// pairing of nil (case 0), identity (1) and random (2) row and column
// permutations, on 20
// seeds of oracleMatrices.
func TestPermuteMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, m := range oracleMatrices(rng) {
			for rn, rp := range permCases(rng, m.Rows) {
				for cn, cp := range permCases(rng, m.Cols) {
					if err := SameBits(m.Permute(rp, cp), refPermute(m, rp, cp)); err != nil {
						t.Errorf("seed %d %v, row case %d, column case %d: %v", seed, m, rn, cn, err)
					}
				}
			}
		}
	}
}

// TestSelectColumnsMatchesReference: SelectColumns and SelectColumnsMap
// select what the map-based references selected, bit for bit and position
// for position, for random column lists and row ranges, an empty list, a
// list no row hits and every column, on 20 seeds of oracleMatrices.
func TestSelectColumnsMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, m := range oracleMatrices(rng) {
			hit := make([]bool, m.Cols)
			for _, j := range m.ColInd {
				hit[j] = true
			}
			var all, missed, some []int
			for j := 0; j < m.Cols; j++ {
				all = append(all, j)
				if !hit[j] {
					missed = append(missed, j)
				}
				if rng.Intn(3) == 0 {
					some = append(some, j)
				}
			}
			r0 := rng.Intn(m.Rows + 1)
			r1 := r0 + rng.Intn(m.Rows-r0+1)
			for cn, cols := range map[string][]int{"empty": {}, "missed": missed, "all": all, "some": some} {
				for _, rr := range [][2]int{{0, m.Rows}, {r0, r1}, {r0, r0}} {
					what := fmt.Sprintf("seed %d %v, %s columns, rows [%d,%d)", seed, m, cn, rr[0], rr[1])
					if err := SameBits(m.SelectColumns(rr[0], rr[1], cols), refSelectColumns(m, rr[0], rr[1], cols)); err != nil {
						t.Errorf("%s: %v", what, err)
					}
					got, want := m.SelectColumnsMap(rr[0], rr[1], cols), refSelectColumnsMap(m, rr[0], rr[1], cols)
					if !slices.Equal(got, want) {
						t.Errorf("%s: map %v, reference %v", what, got, want)
					}
				}
			}
		}
	}
}

// TestSelectPanics: both selections refuse a bad row range, a column list
// that is not strictly increasing (the forward walk needs it) and a column
// out of range, each with the message that names the method.
func TestSelectPanics(t *testing.T) {
	m := sampleCSR(t)
	for _, op := range []string{"SelectColumns", "SelectColumnsMap"} {
		for want, args := range map[string]struct {
			r0, r1 int
			cols   []int
		}{
			"row range out of bounds":         {2, 4, []int{0}},
			"columns not strictly increasing": {0, 3, []int{2, 0}},
			"column out of range":             {0, 3, []int{1, 3}},
		} {
			func() {
				defer func() {
					if got := recover(); got != "sparse: "+op+" "+want {
						t.Errorf("%s: panic %v, want %q", op, got, want)
					}
				}()
				if op == "SelectColumns" {
					m.SelectColumns(args.r0, args.r1, args.cols)
				} else {
					m.SelectColumnsMap(args.r0, args.r1, args.cols)
				}
			}()
		}
	}
}

// TestPermuteAllocBudget: Permute allocates the matrix and its three arrays
// and nothing else — no triplet list, no re-sort scratch — so its bytes stay
// within 1.3× of what the result keeps, rows and columns permuted or not.
func TestPermuteAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomCSR(rng, 20000, 20000, 160000)
	for name, perms := range map[string][2][]int{
		"rows":    {rng.Perm(m.Rows), nil},
		"both":    {rng.Perm(m.Rows), rng.Perm(m.Cols)},
		"columns": {nil, rng.Perm(m.Cols)},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p := m.Permute(perms[0], perms[1])
		runtime.ReadMemStats(&after)
		bytes, held := after.TotalAlloc-before.TotalAlloc, 8*uint64(len(p.RowPtr)+len(p.ColInd)+len(p.Val))
		objects := testing.AllocsPerRun(3, func() { m.Permute(perms[0], perms[1]) })
		t.Logf("%s: %d bytes for %d held, %v objects", name, bytes, held, objects)
		if 10*bytes > 13*held {
			t.Errorf("%s: Permute allocated %d bytes to keep %d, budget is 1.3x", name, bytes, held)
		}
		if objects > 4 {
			t.Errorf("%s: Permute allocated %v objects, budget is 4", name, objects)
		}
	}
}
