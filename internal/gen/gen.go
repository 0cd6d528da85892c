// Package gen builds the test and experiment matrices: the paper's generated
// diagonally dominant systems (with a controllable dominance margin so the
// Jacobi spectral radius can be pushed arbitrarily close to 1, as the
// authors do for their Figure 3 matrix), synthetic stand-ins for the UF
// cage10/11/12 DNA-electrophoresis matrices, and classic PDE discretizations
// used by the examples and the property tests.
//
// Everything is deterministic given a seed.
package gen

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/sparse"
	"repro/internal/vec"
)

// DiagDominantOpts configures DiagDominant.
type DiagDominantOpts struct {
	// N is the matrix dimension.
	N int
	// Band is the half bandwidth for off-diagonal placement (default 10).
	Band int
	// PerRow is the number of off-diagonal entries per row (default 6).
	PerRow int
	// Margin is the strict-dominance margin: |a_ii| = (1+Margin)·Σ|a_ij|.
	// A small margin pushes the point-Jacobi spectral radius toward 1
	// (default 0.5). Must be > 0 for strict dominance.
	Margin float64
	// Negative makes every off-diagonal entry negative (an M-matrix-like
	// sign pattern). With mixed signs random cancellation keeps the true
	// spectral radius of the iteration operator well below the row-sum
	// bound; a single sign removes the cancellation so ρ genuinely
	// approaches 1/(1+Margin) — the regime of the paper's Figure 3 matrix.
	Negative bool
	// Seed drives the deterministic generator.
	Seed int64
}

func (o *DiagDominantOpts) defaults() {
	if o.Band <= 0 {
		o.Band = 10
	}
	if o.PerRow <= 0 {
		o.PerRow = 6
	}
	if o.Margin == 0 {
		o.Margin = 0.5
	}
}

// DiagDominant generates a nonsymmetric strictly diagonally dominant banded
// sparse matrix, following the construction the paper describes for its
// "generated" 500000 and 100000 matrices. Rows i always couple to i−1 and
// i+1 so the matrix is irreducible.
func DiagDominant(o DiagDominantOpts) *sparse.CSR {
	o.defaults()
	n := o.N
	rng := rand.New(rand.NewSource(o.Seed))
	// The longest row: its chain neighbours or PerRow draws, at most n−1,
	// plus the diagonal.
	rowCap := min(max(o.PerRow, 2), n-1) + 1
	m := newRows(n, n*rowCap)
	cols := make([]int, 0, rowCap)
	for i := 0; i < n; i++ {
		cols = cols[:0]
		if i > 0 {
			cols = append(cols, i-1)
		}
		if i < n-1 {
			cols = append(cols, i+1)
		}
		// Cap the target by the columns actually reachable inside the band
		// (rows near the boundary have fewer candidates).
		want := min(o.PerRow, min(i+o.Band, n-1)-max(i-o.Band, 0))
		for len(cols) < want {
			off := rng.Intn(2*o.Band+1) - o.Band
			j := i + off
			if j == i || j < 0 || j >= n {
				continue
			}
			cols, _ = insert(cols, j)
		}
		var d int
		cols, d = insert(cols, i)
		v := addRow(m, cols)
		sum := 0.0
		for t := range v {
			if t == d {
				continue
			}
			if o.Negative {
				v[t] = -(0.05 + float64(0.95*rng.Float64())) // in [-1,-0.05)
			} else {
				// rand's Float64 ends in a multiply: round it before
				// doubling, or x+x fuses with it.
				v[t] = float64(2*float64(rng.Float64())) - 1 // in [-1,1)
				if v[t] == 0 {
					v[t] = 0.5
				}
			}
			sum += math.Abs(v[t])
		}
		v[d] = (1 + o.Margin) * sum
	}
	return m
}

// CageLike generates a synthetic stand-in for the UF cage family (DNA
// electrophoresis transition matrices): nonsymmetric, ~13 nonzeros per row,
// positive diagonal with negative off-diagonals in I−P form where P is
// substochastic, hence an irreducibly diagonally dominant M-matrix-like
// system. Structure mixes short-range (±1, ±2) and long-range (±k, ±k²)
// couplings, mimicking the cage model's configuration-graph bands.
func CageLike(n int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	k := int(math.Sqrt(float64(n)))
	if k < 2 {
		k = 2
	}
	offsets := [...]int{-k * 2, -k, -2, -1, 1, 2, k, k * 2}
	const extra = 5
	rowCap := len(offsets) + extra + 1
	m := newRows(n, n*rowCap)
	cols := make([]int, 0, rowCap)
	for i := 0; i < n; i++ {
		// Deterministic structural couplings plus a few random ones.
		cols = cols[:0]
		for _, off := range offsets {
			j := i + off
			if j >= 0 && j < n && j != i {
				cols, _ = insert(cols, j)
			}
		}
		for e := 0; e < extra; e++ {
			j := rng.Intn(n)
			if j != i {
				cols, _ = insert(cols, j)
			}
		}
		// Substochastic off-diagonal mass: rows sum to 1−δ with δ≈0.1.
		delta := 0.08 + float64(0.04*rng.Float64())
		mass := 1 - delta
		var d int
		cols, d = insert(cols, i)
		v := addRow(m, cols) // each entry's weight, then its share of the mass
		wsum := 0.0
		for t := range v {
			if t != d {
				v[t] = 0.1 + float64(rng.Float64())
				wsum += v[t]
			}
		}
		for t := range v {
			v[t] = -mass * v[t] / wsum
		}
		v[d] = 1
	}
	return m
}

// Poisson2D returns the 5-point finite-difference Laplacian on an nx×ny grid
// (n = nx·ny unknowns, Dirichlet boundary), a symmetric irreducibly
// diagonally dominant M-matrix — the paper's Section 5 model problem class.
func Poisson2D(nx, ny int) *sparse.CSR {
	m := newRows(nx*ny, 5*nx*ny)
	offs, vals := []int{-ny, -1, 0, 1, ny}, []float64{-1, -1, 4, -1, -1}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			stencil(m, i*ny+j, offs, vals, i > 0, j > 0, true, j < ny-1, i < nx-1)
		}
	}
	return m
}

// Poisson3D returns the 7-point Laplacian on an nx×ny×nz grid.
func Poisson3D(nx, ny, nz int) *sparse.CSR {
	m := newRows(nx*ny*nz, 7*nx*ny*nz)
	offs, vals := []int{-ny * nz, -nz, -1, 0, 1, nz, ny * nz}, []float64{-1, -1, -1, 6, -1, -1, -1}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				stencil(m, (i*ny+j)*nz+k, offs, vals, i > 0, j > 0, k > 0, true, k < nz-1, j < ny-1, i < nx-1)
			}
		}
	}
	return m
}

// Tridiag returns the tridiagonal Toeplitz matrix with sub-diagonal a, main
// diagonal b and super-diagonal c.
func Tridiag(n int, a, b, c float64) *sparse.CSR {
	m := newRows(n, 3*n)
	offs, vals := []int{-1, 0, 1}, []float64{a, b, c}
	for i := 0; i < n; i++ {
		stencil(m, i, offs, vals, i > 0, true, i < n-1)
	}
	return m
}

// stencil appends row r of m: vals[t] at column r+offs[t] for each t whose
// neighbour is inside the grid (in[t]). offs ascend, so the row's columns do.
func stencil(m *sparse.CSR, r int, offs []int, vals []float64, in ...bool) {
	for t, off := range offs {
		if in[t] {
			m.ColInd = append(m.ColInd, r+off)
			m.Val = append(m.Val, vals[t])
		}
	}
	m.RowPtr = append(m.RowPtr, len(m.Val))
}

// RandomDominant generates a random strictly diagonally dominant matrix with
// approximately density·n off-diagonal entries per row; used by the
// property-based tests over Theorem 1's hypothesis class.
func RandomDominant(n int, perRow int, margin float64, rng *rand.Rand) *sparse.CSR {
	if perRow < 1 {
		perRow = 1
	}
	want := min(perRow, n-1)
	m := newRows(n, n*(want+1))
	cols := make([]int, 0, want+1)
	for i := 0; i < n; i++ {
		cols = cols[:0]
		for len(cols) < want {
			j := rng.Intn(n)
			if j != i {
				cols, _ = insert(cols, j)
			}
		}
		var d int
		cols, d = insert(cols, i)
		v := addRow(m, cols)
		sum := 0.0
		for t := range v {
			if t == d {
				continue
			}
			v[t] = rng.NormFloat64()
			if v[t] == 0 {
				v[t] = 1
			}
			sum += math.Abs(v[t])
		}
		sign := 1.0
		if rng.Intn(2) == 0 {
			sign = -1
		}
		v[d] = sign * (1 + margin) * (sum + 0.1)
	}
	return m
}

// newRows returns an n×n matrix with no rows yet and room for nnz entries.
// Every generator appends its rows in order, each with ascending columns, so
// no triplet list or re-sort is needed: a random row's column set is a short
// sorted slice (insert), and its values are drawn in ascending column order.
func newRows(n, nnz int) *sparse.CSR {
	return &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, 1, n+1),
		ColInd: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
}

// addRow appends the next row of m with the ascending columns cols and
// returns its values, zero, for the caller to fill.
func addRow(m *sparse.CSR, cols []int) []float64 {
	p := len(m.Val)
	m.ColInd = append(m.ColInd, cols...)
	m.Val = slices.Grow(m.Val, len(cols))[:p+len(cols)]
	m.RowPtr = append(m.RowPtr, len(m.Val))
	return m.Val[p:]
}

// insert adds j to the ascending set s unless it is there already, and
// returns the set and j's position in it.
func insert(s []int, j int) ([]int, int) {
	k := len(s)
	for k > 0 && s[k-1] > j {
		k--
	}
	if k > 0 && s[k-1] == j {
		return s, k - 1
	}
	s = append(s, j)
	for q := len(s) - 1; q > k; q-- {
		s[q] = s[q-1]
	}
	s[k] = j
	return s, k
}

// RHSForSolution returns b = A·xtrue for a deterministic smooth xtrue
// (xtrue[i] = 1 + sin-profile), along with xtrue itself, so every experiment
// can verify the computed solution against a known exact answer.
func RHSForSolution(a *sparse.CSR) (b, xtrue []float64) {
	n := a.Rows
	xtrue = make([]float64, n)
	for i := range xtrue {
		xtrue[i] = 1 + float64(0.5*math.Sin(float64(i)*0.01))
	}
	b = make([]float64, n)
	var c vec.Counter
	a.MulVec(b, xtrue, &c)
	return b, xtrue
}
