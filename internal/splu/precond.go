package splu

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// Preconditioner approximates the inverse of a band submatrix for the
// two-stage inner sweeps: Apply computes x = M⁻¹·r where M is a cheap
// splitting of the submatrix (here its central band, factored once by the
// banded LU). Unlike a Factorization it never stores the full LU fill of the
// submatrix — its memory stays O(n·width) while the exact factorization
// grows with the fill — which is what lets two-stage multisplitting reach
// problem sizes where the direct inner solve runs out of memory.
type Preconditioner interface {
	// Apply computes x = M⁻¹·r. x and r must have length N() and must not
	// alias.
	Apply(x, r []float64, c *vec.Counter)
	// ApplyFlops returns the exact arithmetic cost of one Apply, so callers
	// can declare compute segments up front.
	ApplyFlops() float64
	// FactorFlops returns the arithmetic spent factoring M.
	FactorFlops() float64
	// Bytes returns the resident size of the factored M.
	Bytes() int64
	// N returns the dimension of M.
	N() int
	// Refresh refills M from a matrix with the same sparsity pattern as the
	// one the preconditioner was built from and refactors numerically,
	// without re-deriving the band extraction. It backs the session path,
	// where values change but positions are frozen.
	Refresh(a *sparse.CSR, c *vec.Counter) error
}

// bandPrecond is the band-extraction preconditioner: M is the |i-j| <= width
// band of the source matrix, held in LAPACK band storage and factored by the
// pivoting banded LU. The build and Refresh fill the band by scanning the
// source CSR for its in-band entries.
type bandPrecond struct {
	lu      *dense.BandLU
	pattern uint64 // fingerprint of the source pattern the band was built from
}

// NewBandPreconditioner extracts the |i-j| <= width band of a and factors it
// with the banded LU. The width is clamped to the matrix bandwidth (a width
// at or above the bandwidth makes M = A, i.e. an exact preconditioner). The
// returned error is a singular or structurally deficient band; callers fall
// back to the exact factorization in that case. The count added to c has no
// floor above zero — a band whose multipliers all vanish counts none, and so
// does a singular one — and neither has Refresh's: a deferred build or
// refresh declares a floor of 0.
func NewBandPreconditioner(a *sparse.CSR, width int, c *vec.Counter) (Preconditioner, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("splu: need square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if width < 0 {
		return nil, fmt.Errorf("splu: preconditioner band width %d < 0", width)
	}
	n := a.Rows
	kl := max(min(width, n-1), 0)
	band := dense.NewBand(n, kl, kl)
	fillBand(band, a)
	lu, err := dense.FactorBand(band, c)
	if err != nil {
		return nil, fmt.Errorf("splu: band preconditioner (width %d): %w", width, err)
	}
	return &bandPrecond{lu: lu, pattern: patternHash(a)}, nil
}

// fillBand copies the entries of a with |i-j| <= band.KL into band, whose
// other positions are zero; band.KU must be at least band.KL.
func fillBand(band *dense.Band, a *sparse.CSR) {
	kl := band.KL
	for i := 0; i < a.Rows; i++ {
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			if j := a.ColInd[q]; i-j <= kl && j-i <= kl {
				band.Set(i, j, a.Val[q])
			}
		}
	}
}

// Apply implements Preconditioner.
func (p *bandPrecond) Apply(x, r []float64, c *vec.Counter) { p.lu.Solve(x, r, c) }

// ApplyFlops implements Preconditioner.
func (p *bandPrecond) ApplyFlops() float64 { return p.lu.SolveFlops() }

// FactorFlops implements Preconditioner.
func (p *bandPrecond) FactorFlops() float64 { return p.lu.Flops }

// Bytes implements Preconditioner: the band storage including pivot fill.
func (p *bandPrecond) Bytes() int64 { return p.lu.Bytes() }

// N implements Preconditioner.
func (p *bandPrecond) N() int { return p.lu.Band().N }

// Refresh implements Preconditioner: refill the band from a, whose pattern
// must be the one the band was built from, and refactor numerically.
func (p *bandPrecond) Refresh(a *sparse.CSR, c *vec.Counter) error {
	if n := p.N(); a.Rows != n || a.Cols != n {
		return fmt.Errorf("splu: refresh dimension %dx%d != %d", a.Rows, a.Cols, n)
	}
	// A different pattern would refill M with other entries than those the
	// preconditioner was built from, and the sweeps would run on it without
	// an error.
	if patternHash(a) != p.pattern {
		return fmt.Errorf("splu: refresh pattern mismatch: %d nnz, not in the positions the preconditioner was built from", a.NNZ())
	}
	band := p.lu.Band()
	band.Zero()
	fillBand(band, a)
	return p.lu.Refactor(c)
}
