package core

import (
	"errors"
	"fmt"

	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
)

// ErrNoConvergence is returned when the iteration cap is reached before the
// requested accuracy.
var ErrNoConvergence = errors.New("core: multisplitting iteration did not converge")

// ErrDiverged is returned when an iterate leaves the representable range
// (NaN or Inf), which happens when a splitting violates Theorem 1's
// spectral-radius hypothesis.
var ErrDiverged = errors.New("core: multisplitting iteration diverged")

// SeqResult reports a sequential multisplitting solve.
type SeqResult struct {
	// X is the assembled solution vector.
	X []float64
	// Iterations is the number of fixed-point sweeps performed.
	Iterations int
	// Diff is the final successive-iterate difference (∞-norm).
	Diff float64
}

// bandSystem is the per-band precomputed subsystem: the factored ASub, the
// dependency matrices and the contributor weighting needed to form
// z^l = Σ_k E_lk x^k restricted to the dependency columns.
type bandSystem struct {
	band Band
	fact splu.Factorization
	// depCols are the global column indices outside [Lo,Hi) carrying
	// nonzeros in the band rows, sorted ascending.
	depCols []int
	// depMat is the (Hi-Lo)×len(depCols) coupling matrix (DepLeft and
	// DepRight of the paper's Figure 1, concatenated).
	depMat *sparse.CSR
	// contributors[i] lists (band, weight) pairs for depCols[i].
	contributors [][]contrib
	bSub         []float64
}

type contrib struct {
	band   int
	weight float64
}

// buildBandSystems factors every band of the decomposition and prepares the
// dependency structure. It is shared by the sequential reference driver and
// the tests; the distributed driver builds the same structure per process.
func buildBandSystems(a *sparse.CSR, b []float64, d *Decomposition, solver splu.Direct, c *vec.Counter) ([]*bandSystem, error) {
	if a.Rows != a.Cols || a.Rows != d.N || len(b) != d.N {
		return nil, fmt.Errorf("core: shape mismatch: A is %dx%d, n=%d, len(b)=%d", a.Rows, a.Cols, d.N, len(b))
	}
	systems := make([]*bandSystem, d.L())
	for l, band := range d.Bands {
		sub := a.Submatrix(band.Lo, band.Hi, band.Lo, band.Hi)
		fact, err := solver.Factor(sub, c)
		if err != nil {
			return nil, fmt.Errorf("core: band %d factorization: %w", l, err)
		}
		left := a.ColumnsUsed(band.Lo, band.Hi, 0, band.Lo)
		right := a.ColumnsUsed(band.Lo, band.Hi, band.Hi, d.N)
		depCols := append(append([]int{}, left...), right...)
		bs := &bandSystem{
			band:    band,
			fact:    fact,
			depCols: depCols,
			depMat:  a.SelectColumns(band.Lo, band.Hi, depCols),
			bSub:    vec.Clone(b[band.Lo:band.Hi]),
		}
		bs.contributors = make([][]contrib, len(depCols))
		for i, j := range depCols {
			for _, k := range d.Contributors(j) {
				bs.contributors[i] = append(bs.contributors[i], contrib{band: k, weight: d.Weight(k, j)})
			}
		}
		systems[l] = bs
	}
	return systems, nil
}

// SolveSequential runs the synchronous multisplitting-direct iteration
// in-process (no simulated grid): the extended fixed point mapping T of
// Section 3 applied until successive band iterates differ by at most tol in
// the infinity norm. It is the executable form of the paper's convergence
// theory, used as the reference implementation the distributed drivers are
// tested against.
func SolveSequential(a *sparse.CSR, b []float64, d *Decomposition, solver splu.Direct, tol float64, maxIter int, c *vec.Counter) (*SeqResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	systems, err := buildBandSystems(a, b, d, solver, c)
	if err != nil {
		return nil, err
	}
	// xb[l] is band l's current iterate over [Lo,Hi); initial guess zero.
	xb := make([][]float64, d.L())
	newXb := make([][]float64, d.L())
	for l, bs := range systems {
		xb[l] = make([]float64, bs.band.Size())
		newXb[l] = make([]float64, bs.band.Size())
	}
	diff := 0.0
	for iter := 1; iter <= maxIter; iter++ {
		diff = 0
		for l, bs := range systems {
			rhs := vec.Clone(bs.bSub)
			if len(bs.depCols) > 0 {
				z := make([]float64, len(bs.depCols))
				for i := range bs.depCols {
					for _, ct := range bs.contributors[i] {
						kb := systems[ct.band].band
						z[i] += float64(ct.weight * xb[ct.band][bs.depCols[i]-kb.Lo])
					}
				}
				bs.depMat.MulVecSub(rhs, z, c)
			}
			bs.fact.Solve(newXb[l], rhs, c)
			if !vec.AllFinite(newXb[l]) {
				return nil, fmt.Errorf("%w: band %d at iteration %d", ErrDiverged, l, iter)
			}
			if dl := vec.DiffNormInf(newXb[l], xb[l], c); dl > diff {
				diff = dl
			}
		}
		for l := range xb {
			xb[l], newXb[l] = newXb[l], xb[l]
		}
		if diff <= tol {
			return &SeqResult{X: assemble(d, systems, xb), Iterations: iter, Diff: diff}, nil
		}
	}
	return &SeqResult{X: assemble(d, systems, xb), Iterations: maxIter, Diff: diff}, ErrNoConvergence
}

// assemble combines the band iterates into the global solution using the
// weighting matrices: x_j = Σ_k (E_k)_jj x^k_j.
func assemble(d *Decomposition, systems []*bandSystem, xb [][]float64) []float64 {
	x := make([]float64, d.N)
	for k, bs := range systems {
		for j := bs.band.Lo; j < bs.band.Hi; j++ {
			if w := d.Weight(k, j); w > 0 {
				x[j] += float64(w * xb[k][j-bs.band.Lo])
			}
		}
	}
	return x
}
