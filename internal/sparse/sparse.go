// Package sparse implements the sparse matrix formats (COO, CSR, CSC) and
// the structural operations the solvers are built on: sparse matrix-vector
// products, sub-matrix extraction for band decompositions, permutations,
// transposition and format conversion.
//
// All matrices hold float64 entries with 0-based indices. Kernels that do
// floating-point work take a *vec.Counter so the simulated grid can charge
// compute time proportional to the arithmetic actually performed.
package sparse

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/vec"
)

// COO is a coordinate-format (triplet) matrix used as a builder. Duplicate
// entries are summed when converting to CSR/CSC.
type COO struct {
	Rows, Cols int       // shape
	I, J       []int     // row and column index of each triplet
	V          []float64 // value of each triplet
}

// NewCOO returns an empty COO matrix with the given shape.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic("sparse: negative dimension")
	}
	return &COO{Rows: rows, Cols: cols}
}

// Append adds entry (i, j, v). It panics if the index is out of range.
func (c *COO) Append(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("sparse: COO index (%d,%d) out of range %dx%d", i, j, c.Rows, c.Cols))
	}
	c.I = append(c.I, i)
	c.J = append(c.J, j)
	c.V = append(c.V, v)
}

// ToCSR converts the triplets to CSR, summing duplicates and dropping
// explicit zeros produced by the summation only if they were duplicates
// (singleton explicit zeros are kept, matching MatrixMarket round-trips).
func (c *COO) ToCSR() *CSR {
	rows, cols := c.Rows, c.Cols
	count := make([]int, rows+1)
	for _, i := range c.I {
		count[i+1]++
	}
	for i := 0; i < rows; i++ {
		count[i+1] += count[i]
	}
	rowPtr := make([]int, rows+1)
	copy(rowPtr, count)
	colInd := make([]int, len(c.V))
	val := make([]float64, len(c.V))
	next := make([]int, rows)
	for i := range next {
		next[i] = rowPtr[i]
	}
	for k, i := range c.I {
		p := next[i]
		colInd[p] = c.J[k]
		val[p] = c.V[k]
		next[i] = p + 1
	}
	m := &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColInd: colInd, Val: val}
	m.sortRows()
	m.sumDuplicates()
	return m
}

// CSR is a compressed sparse row matrix. Column indices within each row are
// kept sorted and duplicate-free by every constructor in this package.
type CSR struct {
	Rows, Cols int       // shape
	RowPtr     []int     // length Rows+1
	ColInd     []int     // length NNZ
	Val        []float64 // length NNZ, ordered like ColInd
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// Clone returns a deep copy of m.
func (m *CSR) Clone() *CSR {
	return &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColInd: append([]int(nil), m.ColInd...),
		Val:    append([]float64(nil), m.Val...),
	}
}

// shortRowSort is the row length up to which sortRows uses insertion sort.
// The rows it sorts (COO input, column-permuted rows) are almost always this
// short, and the insertion sort is allocation-free whereas sort.Sort boxes
// the rowView into an interface.
const shortRowSort = 24

func (m *CSR) sortRows() {
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		ind := m.ColInd[lo:hi]
		val := m.Val[lo:hi]
		if len(ind) <= shortRowSort {
			insertionSortRow(ind, val)
			continue
		}
		row := rowView{ind, val}
		if !sort.IsSorted(row) {
			sort.Sort(row)
		}
	}
}

// insertionSortRow sorts the (ind, val) pairs of one row by index without
// allocating. Equal indices keep their relative order (stable), preserving
// sumDuplicates' left-to-right summation order.
func insertionSortRow(ind []int, val []float64) {
	for i := 1; i < len(ind); i++ {
		j, v := ind[i], val[i]
		k := i - 1
		for k >= 0 && ind[k] > j {
			ind[k+1], val[k+1] = ind[k], val[k]
			k--
		}
		ind[k+1], val[k+1] = j, v
	}
}

type rowView struct {
	ind []int
	val []float64
}

func (r rowView) Len() int           { return len(r.ind) }
func (r rowView) Less(i, j int) bool { return r.ind[i] < r.ind[j] }
func (r rowView) Swap(i, j int) {
	r.ind[i], r.ind[j] = r.ind[j], r.ind[i]
	r.val[i], r.val[j] = r.val[j], r.val[i]
}

// sumDuplicates merges adjacent equal column indices (rows must be sorted).
func (m *CSR) sumDuplicates() {
	out := 0
	newPtr := make([]int, m.Rows+1)
	for i := 0; i < m.Rows; i++ {
		newPtr[i] = out
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for p := lo; p < hi; {
			j := m.ColInd[p]
			v := m.Val[p]
			p++
			for p < hi && m.ColInd[p] == j {
				v += m.Val[p]
				p++
			}
			m.ColInd[out] = j
			m.Val[out] = v
			out++
		}
	}
	newPtr[m.Rows] = out
	m.RowPtr = newPtr
	m.ColInd = m.ColInd[:out]
	m.Val = m.Val[:out]
}

// At returns the entry at (i, j), zero when not stored. It panics on an
// out-of-range index. Cost is O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	ind := m.ColInd[lo:hi]
	k := sort.SearchInts(ind, j)
	if k < len(ind) && ind[k] == j {
		return m.Val[lo+k]
	}
	return 0
}

// dot2 returns the dot products with x of the two adjacent stored rows
// [a,b) and [b,e), each summed left to right in storage order: what a
// one-row loop computes, bit for bit, with the two rows' dependent add chains
// overlapped. Reslicing the rows into locals keeps the slice headers in
// registers and ties len(val) to len(ind). An odd last row is the pair (row,
// empty): e == b.
func (m *CSR) dot2(x []float64, a, b, e int) (s0, s1 float64) {
	ind0, ind1 := m.ColInd[a:b], m.ColInd[b:e]
	val0, val1 := m.Val[a:b], m.Val[b:e]
	n := min(len(ind0), len(ind1))
	for t := 0; t < n; t++ {
		s0 += float64(val0[t] * x[ind0[t]])
		s1 += float64(val1[t] * x[ind1[t]])
	}
	for t := n; t < len(ind0); t++ {
		s0 += float64(val0[t] * x[ind0[t]])
	}
	for t := n; t < len(ind1); t++ {
		s1 += float64(val1[t] * x[ind1[t]])
	}
	return s0, s1
}

// MulVec computes y = A*x. len(x) must be Cols and len(y) must be Rows.
func (m *CSR) MulVec(y, x []float64, c *vec.Counter) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVec shape: A is %dx%d, len(x)=%d len(y)=%d", m.Rows, m.Cols, len(x), len(y)))
	}
	rp, i := m.RowPtr, 0
	for ; i+1 < m.Rows; i += 2 {
		y[i], y[i+1] = m.dot2(x, rp[i], rp[i+1], rp[i+2])
	}
	if i < m.Rows {
		y[i], _ = m.dot2(x, rp[i], rp[i+1], rp[i+1])
	}
	c.Add(2 * float64(m.NNZ()))
}

// MulVecSub computes y -= A*x (the "BLoc = BSub − Dep·X" update in the
// multisplitting iteration). A pair of empty rows is skipped, its y left as
// it is: a dependency matrix stores nothing outside its band's boundary rows.
func (m *CSR) MulVecSub(y, x []float64, c *vec.Counter) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVecSub shape: A is %dx%d, len(x)=%d len(y)=%d", m.Rows, m.Cols, len(x), len(y)))
	}
	rp, i := m.RowPtr, 0
	for ; i+1 < m.Rows; i += 2 {
		if rp[i] == rp[i+2] {
			continue
		}
		s0, s1 := m.dot2(x, rp[i], rp[i+1], rp[i+2])
		y[i] -= s0
		y[i+1] -= s1
	}
	if i < m.Rows {
		s0, _ := m.dot2(x, rp[i], rp[i+1], rp[i+1])
		y[i] -= s0
	}
	c.Add(2 * float64(m.NNZ()))
}

// Submatrix extracts the dense index block rows [r0,r1) × cols [c0,c1) as a
// new CSR matrix with shape (r1-r0)×(c1-c0).
func (m *CSR) Submatrix(r0, r1, c0, c1 int) *CSR {
	if r0 < 0 || r1 > m.Rows || r0 > r1 || c0 < 0 || c1 > m.Cols || c0 > c1 {
		panic(fmt.Sprintf("sparse: Submatrix [%d:%d,%d:%d) out of range %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	rows := r1 - r0
	rowPtr := make([]int, rows+1)
	nnz := 0
	for i := r0; i < r1; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		ind := m.ColInd[lo:hi]
		a := sort.SearchInts(ind, c0)
		b := sort.SearchInts(ind, c1)
		nnz += b - a
		rowPtr[i-r0+1] = nnz
	}
	colInd := make([]int, nnz)
	val := make([]float64, nnz)
	out := 0
	for i := r0; i < r1; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		ind := m.ColInd[lo:hi]
		a := lo + sort.SearchInts(ind, c0)
		b := lo + sort.SearchInts(ind, c1)
		for p := a; p < b; p++ {
			colInd[out] = m.ColInd[p] - c0
			val[out] = m.Val[p]
			out++
		}
	}
	return &CSR{Rows: rows, Cols: c1 - c0, RowPtr: rowPtr, ColInd: colInd, Val: val}
}

// SelectColumns extracts the columns listed in cols (which must be strictly
// increasing) across rows [r0,r1), producing an (r1-r0)×len(cols) matrix
// whose column k corresponds to original column cols[k].
func (m *CSR) SelectColumns(r0, r1 int, cols []int) *CSR {
	m.checkSelect("SelectColumns", r0, r1, cols)
	rows := r1 - r0
	rowPtr := make([]int, rows+1)
	for i := r0; i < r1; i++ {
		rowPtr[i-r0+1] = rowPtr[i-r0] + m.selectRow(i, cols, nil, nil, nil)
	}
	nnz := rowPtr[rows]
	colInd := make([]int, nnz)
	val := make([]float64, nnz)
	for i := r0; i < r1; i++ {
		a := rowPtr[i-r0]
		m.selectRow(i, cols, colInd[a:], val[a:], nil)
	}
	return &CSR{Rows: rows, Cols: len(cols), RowPtr: rowPtr, ColInd: colInd, Val: val}
}

// checkSelect panics unless rows [r0,r1) are in range and cols is a strictly
// increasing list of columns of m.
func (m *CSR) checkSelect(op string, r0, r1 int, cols []int) {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic("sparse: " + op + " row range out of bounds")
	}
	for k := 1; k < len(cols); k++ {
		if cols[k] <= cols[k-1] {
			panic("sparse: " + op + " columns not strictly increasing")
		}
	}
	if len(cols) > 0 && (cols[0] < 0 || cols[len(cols)-1] >= m.Cols) {
		panic("sparse: " + op + " column out of range")
	}
}

// selectRow walks row i's ascending columns forward against the ascending
// cols, from the first of cols at or past the row's first column, and
// returns how many of the row's entries it selects. For the t-th, in row
// order, it writes the column's index in cols to ks[t], its value to vs[t]
// and its position in m.Val to ps[t]; a nil slice is not written.
func (m *CSR) selectRow(i int, cols, ks []int, vs []float64, ps []int) int {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	if lo == hi {
		return 0
	}
	ind := m.ColInd[lo:hi]
	k, _ := slices.BinarySearch(cols, ind[0])
	if k == len(cols) || cols[k] > ind[len(ind)-1] {
		return 0 // the usual band row: no listed column inside its span
	}
	t := 0
	for p := 0; p < len(ind) && k < len(cols); p++ {
		if j := ind[p]; cols[k] > j {
			continue
		} else if cols[k] < j {
			// Skip the listed columns the row does not store in one search:
			// a band row's span can cover hundreds of them.
			d, found := slices.BinarySearch(cols[k:], j)
			if k += d; !found {
				continue
			}
		}
		if ks != nil {
			ks[t] = k
		}
		if vs != nil {
			vs[t] = m.Val[lo+p]
		}
		if ps != nil {
			ps[t] = lo + p
		}
		t++
		k++
	}
	return t
}

// SubmatrixMap returns, for each stored entry of Submatrix(r0, r1, c0, c1)
// in order, the position of its source value in m.Val. A persistent solver
// session uses the map to refresh an extracted block's values in place when
// the parent matrix's values change but its pattern does not:
//
//	for k, p := range mp { sub.Val[k] = parent.Val[p] }
func (m *CSR) SubmatrixMap(r0, r1, c0, c1 int) []int {
	if r0 < 0 || r1 > m.Rows || r0 > r1 || c0 < 0 || c1 > m.Cols || c0 > c1 {
		panic(fmt.Sprintf("sparse: SubmatrixMap [%d:%d,%d:%d) out of range %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	var out []int
	for i := r0; i < r1; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		ind := m.ColInd[lo:hi]
		a := lo + sort.SearchInts(ind, c0)
		b := lo + sort.SearchInts(ind, c1)
		for p := a; p < b; p++ {
			out = append(out, p)
		}
	}
	return out
}

// SelectColumnsMap is SubmatrixMap's counterpart for SelectColumns: the
// positions in m.Val of the entries SelectColumns(r0, r1, cols) extracts, in
// extraction order.
func (m *CSR) SelectColumnsMap(r0, r1 int, cols []int) []int {
	m.checkSelect("SelectColumnsMap", r0, r1, cols)
	nnz := 0
	for i := r0; i < r1; i++ {
		nnz += m.selectRow(i, cols, nil, nil, nil)
	}
	out := make([]int, nnz)
	for i, t := r0, 0; i < r1; i++ {
		t += m.selectRow(i, cols, nil, nil, out[t:])
	}
	return out
}

// ColumnsUsed returns the sorted distinct original column indices, within
// [c0,c1), that carry at least one nonzero in rows [r0,r1). This is how the
// multisplitting decomposition computes its true dependency sets.
func (m *CSR) ColumnsUsed(r0, r1, c0, c1 int) []int {
	var out []int
	for i := r0; i < r1; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		ind := m.ColInd[lo:hi]
		a := sort.SearchInts(ind, c0)
		b := sort.SearchInts(ind, c1)
		out = append(out, ind[a:b]...)
	}
	sort.Ints(out)
	// Dedup in place: cheaper than a seen-map for the short, mostly-sorted
	// per-row runs this collects.
	n := 0
	for _, j := range out {
		if n == 0 || j != out[n-1] {
			out[n] = j
			n++
		}
	}
	return out[:n]
}

// Transpose returns the transpose of m as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	t := &CSR{Rows: m.Cols, Cols: m.Rows}
	t.RowPtr = make([]int, m.Cols+1)
	for _, j := range m.ColInd {
		t.RowPtr[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	t.ColInd = make([]int, m.NNZ())
	t.Val = make([]float64, m.NNZ())
	next := make([]int, m.Cols)
	copy(next, t.RowPtr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := m.ColInd[p]
			q := next[j]
			t.ColInd[q] = i
			t.Val[q] = m.Val[p]
			next[j] = q + 1
		}
	}
	return t
}

// ToCSC converts to compressed sparse column format.
func (m *CSR) ToCSC() *CSC {
	t := m.Transpose()
	return &CSC{Rows: m.Rows, Cols: m.Cols, ColPtr: t.RowPtr, RowInd: t.ColInd, Val: t.Val}
}

// Permute returns P·A·Qᵀ where rowPerm and colPerm give, for each original
// index, its new position: new[rowPerm[i]][colPerm[j]] = old[i][j]. A nil
// permutation means identity; a non-nil one must be a permutation. Each old
// row is copied to its new place (a counting sort on the new row index) and,
// when columns move, re-sorted.
func (m *CSR) Permute(rowPerm, colPerm []int) *CSR {
	if rowPerm != nil && len(rowPerm) != m.Rows {
		panic("sparse: Permute row permutation size mismatch")
	}
	if colPerm != nil && len(colPerm) != m.Cols {
		panic("sparse: Permute column permutation size mismatch")
	}
	newRow := func(i int) int {
		if rowPerm == nil {
			return i
		}
		return rowPerm[i]
	}
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1),
		ColInd: make([]int, m.NNZ()), Val: make([]float64, m.NNZ())}
	for i := 0; i < m.Rows; i++ {
		out.RowPtr[newRow(i)+1] = m.RowPtr[i+1] - m.RowPtr[i]
	}
	for i := 0; i < m.Rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi, q := m.RowPtr[i], m.RowPtr[i+1], out.RowPtr[newRow(i)]
		copy(out.Val[q:], m.Val[lo:hi])
		if colPerm == nil {
			copy(out.ColInd[q:], m.ColInd[lo:hi])
			continue
		}
		for p, j := range m.ColInd[lo:hi] {
			out.ColInd[q+p] = colPerm[j]
		}
	}
	if colPerm != nil {
		out.sortRows()
	}
	return out
}

// Diagonal returns the main diagonal as a dense slice of length min(Rows,Cols).
func (m *CSR) Diagonal() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// Bandwidth returns the maximum |i-j| over stored entries (0 for empty).
func (m *CSR) Bandwidth() int {
	bw := 0
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			d := m.ColInd[p] - i
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// String summarizes the matrix shape for debugging.
func (m *CSR) String() string {
	return fmt.Sprintf("CSR{%dx%d, nnz=%d}", m.Rows, m.Cols, m.NNZ())
}

// CSC is a compressed sparse column matrix, the natural input format for the
// left-looking sparse LU factorization.
type CSC struct {
	Rows, Cols int       // shape
	ColPtr     []int     // length Cols+1
	RowInd     []int     // length NNZ
	Val        []float64 // length NNZ, ordered like RowInd
}

// NNZ returns the number of stored entries.
func (m *CSC) NNZ() int { return len(m.Val) }

// Identity returns the n×n identity matrix in CSR form.
func Identity(n int) *CSR {
	rowPtr := make([]int, n+1)
	colInd := make([]int, n)
	val := make([]float64, n)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = i + 1
		colInd[i] = i
		val[i] = 1
	}
	return &CSR{Rows: n, Cols: n, RowPtr: rowPtr, ColInd: colInd, Val: val}
}

// Equal reports whether a and b have identical shape, pattern and values.
func Equal(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for p := range a.ColInd {
		if a.ColInd[p] != b.ColInd[p] || a.Val[p] != b.Val[p] {
			return false
		}
	}
	return true
}

// IsPerm reports whether p is a valid permutation of 0..len(p)-1.
func IsPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
