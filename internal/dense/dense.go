// Package dense provides dense and banded matrix storage together with LU
// factorizations (partial pivoting) and triangular solves. These are the
// "any sequential direct solver" alternatives the paper's Section 2 allows a
// processor to plug into the multisplitting iteration.
package dense

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/vec"
)

// ErrSingular is returned when a factorization meets an exactly zero pivot.
var ErrSingular = errors.New("dense: matrix is singular")

// Matrix is a row-major dense matrix.
type Matrix struct {
	Rows, Cols int       // shape
	Data       []float64 // len Rows*Cols, element (i,j) at Data[i*Cols+j]
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("dense: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("dense: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic("dense: row out of range")
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

// LU is a dense LU factorization with partial pivoting: P·A = L·U with unit
// lower-triangular L stored below the diagonal of LU and U on and above it.
type LU struct {
	N     int     // dimension of A
	LU    *Matrix // L below the diagonal, U on and above it
	Piv   []int   // row i of the factor came from original row Piv[i]
	Flops float64 // arithmetic the last FactorLU or Refactor spent
}

// FactorLU computes the dense LU factorization of a (which is not modified).
func FactorLU(a *Matrix, c *vec.Counter) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("dense: FactorLU needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	flops, err := factorLUInPlace(lu, piv)
	if err != nil {
		return nil, err
	}
	c.Add(flops)
	return &LU{N: n, LU: lu, Piv: piv, Flops: flops}, nil
}

// Refactor recomputes the factorization from the values of a, overwriting the
// existing factors in place with no allocation. Pivoting is redone from
// scratch, so the result is bit-identical to a fresh FactorLU(a). On error
// the factors are invalid and must not be used for solves.
func (f *LU) Refactor(a *Matrix, c *vec.Counter) error {
	if a.Rows != f.N || a.Cols != f.N {
		return fmt.Errorf("dense: Refactor needs %dx%d matrix, got %dx%d", f.N, f.N, a.Rows, a.Cols)
	}
	copy(f.LU.Data, a.Data)
	flops, err := factorLUInPlace(f.LU, f.Piv)
	if err != nil {
		return err
	}
	f.Flops = flops
	c.Add(flops)
	return nil
}

// factorLUInPlace eliminates lu in place with partial pivoting, filling piv
// with the source row of each pivotal row. Shared by FactorLU and LU.Refactor.
func factorLUInPlace(lu *Matrix, piv []int) (float64, error) {
	n := lu.Rows
	for i := range piv {
		piv[i] = i
	}
	flops := 0.0
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k, rows k..n-1.
		p := k
		best := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > best {
				best, p = a, i
			}
		}
		if best == 0 {
			return 0, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			l := lu.At(i, k) / pivot
			lu.Set(i, k, l)
			if l == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= float64(l * rk[j])
			}
			flops += 2 * float64(n-k-1)
		}
		flops += float64(n - k - 1)
	}
	return flops, nil
}

// Solve computes x with A·x = b. b is not modified.
func (f *LU) Solve(x, b []float64, c *vec.Counter) {
	n := f.N
	if len(x) != n || len(b) != n {
		panic("dense: LU Solve shape mismatch")
	}
	// Apply permutation: y = P·b.
	for i := 0; i < n; i++ {
		x[i] = b[f.Piv[i]]
	}
	// Forward solve L·y = P·b (unit diagonal).
	for i := 1; i < n; i++ {
		row := f.LU.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= float64(row[j] * x[j])
		}
		x[i] = s
	}
	// Back solve U·x = y.
	for i := n - 1; i >= 0; i-- {
		row := f.LU.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= float64(row[j] * x[j])
		}
		x[i] = s / row[i]
	}
	c.Add(2 * float64(n*n))
}

// Band is a general band matrix with kl sub-diagonals and ku super-diagonals
// stored in LAPACK band layout with room for fill during pivoting: column j
// holds rows j-ku-kl .. j+kl in a (2kl+ku+1)×n array (the extra kl rows
// absorb pivot fill, as in LAPACK gbtrf). kv = kl+ku is the storage bound of
// U's upper bandwidth, not U's width: a factorization that swaps no rows
// leaves U ku wide, and BandLU's solve form lists only the entries its
// elimination left non-zero.
//
// With stride = 2kl+ku+1, A(i,j) is Data[kv+i-j + j·stride]. The kernels walk
// that array through three expressions and no accessor: the diagonal A(i,i)
// is Data[kv + i·stride]; column k below its diagonal (L's multipliers, rows
// k+1..k+kl) is the contiguous Data[k·stride+kv+1 : k·stride+kv+1+kl]; row i
// right of its diagonal (U, columns i+1..i+kv) starts at
// Data[kv+i + (i+1)·(stride-1)] and steps by stride-1.
type Band struct {
	N, KL, KU int       // dimension, sub-diagonals, super-diagonals
	Data      []float64 // the (2kl+ku+1)×n array above, column after column
	stride    int
}

// NewBand returns a zeroed n×n band matrix with the given bandwidths.
func NewBand(n, kl, ku int) *Band {
	if n < 0 || kl < 0 || ku < 0 {
		panic("dense: negative band dimension")
	}
	stride := 2*kl + ku + 1
	return &Band{N: n, KL: kl, KU: ku, Data: make([]float64, stride*n), stride: stride}
}

// Index returns the position of A(i,j) in Data; |i-j| must lie within the
// band. Callers that fill the same entries repeatedly keep the positions.
func (b *Band) Index(i, j int) int {
	if i < 0 || i >= b.N || j < 0 || j >= b.N {
		panic("dense: band index out of range")
	}
	if i-j > b.KL || j-i > b.KU {
		panic(fmt.Sprintf("dense: (%d,%d) outside band kl=%d ku=%d", i, j, b.KL, b.KU))
	}
	return (b.KL + b.KU + i - j) + j*b.stride
}

// Set assigns A(i,j); |i-j| must lie within the band.
func (b *Band) Set(i, j int, v float64) { b.Data[b.Index(i, j)] = v }

// BandLU is an LU factorization of a band matrix with partial pivoting.
//
// Besides the factors in Band().Data it keeps their solve form, compiled by
// FactorBand and by every Refactor: the entries of L and U that are not
// exactly zero, in the order Solve reads them. Each entry is an int32 index
// into x and its float64 value. ptr[k]..ptr[k+1] are L's multipliers of
// column k, rows ascending; ptr[n+i]..ptr[n+i+1] are U's off-diagonal
// entries of row i, columns ascending. U's diagonal stays in Data.
type BandLU struct {
	b     *Band
	piv   []int
	ptr   []int32   // 2n+1 bounds into idx and val: L's columns, then U's rows
	idx   []int32   // row (L) or column (U) of each entry
	val   []float64 // its value
	Flops float64   // arithmetic the last FactorBand or Refactor spent
}

// FactorBand factors the band matrix in place (gbtrf-style) and returns the
// factorization. The receiver is consumed: do not reuse b afterwards.
func FactorBand(b *Band, c *vec.Counter) (*BandLU, error) {
	if len(b.Data) > math.MaxInt32 {
		return nil, fmt.Errorf("dense: band of %d elements exceeds the solve form's int32 indices", len(b.Data))
	}
	piv := make([]int, b.N)
	flops, err := factorBandInPlace(b, piv)
	if err != nil {
		return nil, err
	}
	c.Add(flops)
	f := &BandLU{b: b, piv: piv, ptr: make([]int32, 2*b.N+1), Flops: flops}
	f.compile()
	return f, nil
}

// Band returns the underlying band storage. Refactor callers zero it, refill
// it with new values (same pattern) and then call Refactor.
func (f *BandLU) Band() *Band { return f.b }

// SolveFlops returns the exact count one Solve adds, 2·n·(kl+kv+1): the
// forward sweep over kl sub-diagonals, the back substitution over kv = kl+ku
// and the division — two flops per stored element, zero or not.
func (f *BandLU) SolveFlops() float64 { return 2 * float64(len(f.b.Data)) }

// Bytes returns the resident size of the factors: the band storage including
// its pivot-fill rows. The solve form is host memory the model leaves out.
func (f *BandLU) Bytes() int64 { return 8 * int64(len(f.b.Data)) }

// Zero clears the band storage, including the pivot-fill rows.
func (b *Band) Zero() {
	for i := range b.Data {
		b.Data[i] = 0
	}
}

// Refactor re-runs the banded elimination on the values currently stored in
// f.Band() — the caller refills them first — reusing the pivot array, and
// recompiles the solve form, reusing its arrays when its entries fit. On
// error the factors are invalid.
func (f *BandLU) Refactor(c *vec.Counter) error {
	flops, err := factorBandInPlace(f.b, f.piv)
	if err != nil {
		return err
	}
	f.Flops = flops
	c.Add(flops)
	f.compile()
	return nil
}

// factorBandInPlace is the gbtrf-style elimination shared by FactorBand and
// BandLU.Refactor. It returns the flops.
//
// Like LAPACK dgbtf2 it tracks ju, the last column the elimination has
// touched: a row at position r >= k holds its non-zeros in columns up to
// max(ju, r+ku), so the pivot row of column k ends at ju = max(ju,
// piv[k]+ku) and the swap and the row updates stop there. Every entry they
// skip is a fill slot still at +0, and x - l·(+0) is x unless x is -0 and l
// is negative (the full-width update writes +0 there): an input that stores
// -0 right of column ju of some step may keep it where the full-width loops
// wrote +0. Flops keep the storage model, 2·jm per non-zero multiplier with
// jm = min(kv, n-1-k).
func factorBandInPlace(b *Band, piv []int) (flops float64, err error) {
	n, kl, ku := b.N, b.KL, b.KU
	kv := kl + ku // storage bound of U's upper bandwidth
	data, step := b.Data, b.stride-1
	ju := 0
	for k := 0; k < n; k++ {
		km, jm := min(kl, n-1-k), min(kv, n-1-k)
		// Pivot search in column k, rows k..k+km (col[t] is row k+t).
		dk := kv + k*b.stride
		col := data[dk : dk+km+1]
		p, best := 0, math.Abs(col[0])
		for t := 1; t <= km; t++ {
			if a := math.Abs(col[t]); a > best {
				best, p = a, t
			}
		}
		if best == 0 {
			return 0, ErrSingular
		}
		piv[k] = k + p
		ju = max(ju, min(k+p+ku, n-1))
		last := dk + (ju-k)*step // row k's entry in column ju
		if p != 0 {
			// Swap rows k and k+p over columns k..ju.
			for q := dk; q <= last; q += step {
				data[q], data[q+p] = data[q+p], data[q]
			}
		}
		pivot := col[0]
		for t := 1; t <= km; t++ {
			l := col[t] / pivot
			col[t] = l
			if l == 0 {
				continue
			}
			// Row k+t -= l·row k over columns k+1..ju.
			for q := dk + step; q <= last; q += step {
				data[q+t] -= float64(l * data[q])
			}
			flops += 2 * float64(jm)
		}
	}
	return flops, nil
}

// compile rebuilds the solve form from the factors: a counting pass, new
// idx and val arrays only when the count exceeds their capacity, then the
// listing pass.
func (f *BandLU) compile() {
	nnz := f.list(false)
	if nnz > cap(f.val) {
		f.idx, f.val = make([]int32, nnz), make([]float64, nnz)
	}
	f.idx, f.val = f.idx[:nnz], f.val[:nnz]
	f.list(true)
}

// list walks L column by column and U row by row over the full storage
// widths (kl below the diagonal, kv = kl+ku above it) and returns how many
// entries are not exactly zero; with write set it also records them and
// their bounds in ptr, idx and val, which must hold that many.
func (f *BandLU) list(write bool) int {
	b := f.b
	n, kl := b.N, b.KL
	kv := kl + b.KU
	data, step := b.Data, b.stride-1
	m := 0
	for k := 0; k < n; k++ {
		if write {
			f.ptr[k] = int32(m)
		}
		for t, l := range data[k*b.stride+kv+1:][:min(kl, n-1-k)] {
			if l != 0 {
				if write {
					f.idx[m], f.val[m] = int32(k+1+t), l
				}
				m++
			}
		}
	}
	for i := 0; i < n; i++ {
		if write {
			f.ptr[n+i] = int32(m)
		}
		q := kv + i + (i+1)*step
		for j := i + 1; j <= min(i+kv, n-1); j++ {
			if u := data[q]; u != 0 {
				if write {
					f.idx[m], f.val[m] = int32(j), u
				}
				m++
			}
			q += step
		}
	}
	if write {
		f.ptr[2*n] = int32(m)
	}
	return m
}

// Solve computes x with A·x = b0 using the band factorization.
//
// It walks the solve form in the full-storage loops' order — row swaps and
// L column by column, then U row by row from the last, each row's columns
// ascending, then the division by U's diagonal — so every x[i] receives the
// same operations, minus those by an exact zero. s - (±0)·x[j] is s unless
// s is -0 or x[j] is not finite, so x is the full-storage loops' to the bit,
// except that a -0 may stay -0 where they read +0, and an x whose skipped
// entries meet an infinite x[j] keeps ±Inf where they read NaN.
func (f *BandLU) Solve(x, b0 []float64, c *vec.Counter) {
	b := f.b
	n := b.N
	if len(x) != n || len(b0) != n {
		panic("dense: BandLU Solve shape mismatch")
	}
	ptr, idx, val := f.ptr, f.idx, f.val
	copy(x, b0)
	// Forward: apply row swaps and L (unit diagonal) in elimination order,
	// column k's multipliers onto the rows below it.
	for k := 0; k < n; k++ {
		if p := f.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
		xk := x[k]
		ls := val[ptr[k]:ptr[k+1]]
		rows := idx[ptr[k]:][:len(ls)]
		for t, l := range ls {
			x[rows[t]] -= float64(l * xk)
		}
	}
	// Back substitution with U, row i left to right.
	data, dk, stride := b.Data, b.KL+b.KU, b.stride
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		us := val[ptr[n+i]:ptr[n+i+1]]
		cols := idx[ptr[n+i]:][:len(us)]
		for t, u := range us {
			s -= float64(u * x[cols[t]])
		}
		x[i] = s / data[dk+i*stride]
	}
	c.Add(f.SolveFlops())
}
