// Numeric refactorization: recompute factor values through a frozen symbolic
// structure. This is the KLU-style split the paper's Remark 4 economy extends
// to sequences of same-pattern systems (Newton-multisplitting): the pivot
// order, reachability sets, L/U pattern and scratch buffers from the first
// Factor are reused, so each later factorization is pure arithmetic — no DFS,
// no pivot search, no allocation.

package splu

import (
	"fmt"
	"math"

	"repro/internal/sparse"
	"repro/internal/vec"
)

// Refactorer is the part of every Factorization that recomputes the numeric
// factor values from a matrix with the same shape and sparsity pattern as
// the one originally factored, reusing the frozen symbolic structure.
type Refactorer interface {
	// Refactor recomputes the factors from the values of a. The pattern of a
	// must equal the originally factored matrix's pattern; only the values
	// may differ. On success subsequent Solves use the new values. On error
	// the factorization is invalid and must be re-Factored before use.
	Refactor(a *sparse.CSR, c *vec.Counter) error
	// RefactorFlops returns the cost one Refactor call adds to its Counter.
	// For the sparse LU it is exact and pattern-determined — known before
	// any values arrive, so a refactor can be declared as a fixed-cost
	// compute segment (mp.Comm.ComputeSeg) instead of a measured deferred
	// one. For the dense-family factorizations the count is value-dependent
	// (zero multipliers skip work); RefactorFlops then returns the most
	// recent factorization's cost as the declaration estimate, and callers
	// reconcile with Charge.
	RefactorFlops() float64
}

// Refactor implements Refactorer. It scatters the new values through the
// frozen scatter map (built by finishSymbolic) and re-eliminates column by
// column in the frozen pivot order. The stored U(:,k) indices are already in
// topological order and the L columns cover the fill closure, so the single
// pass reproduces Factor's arithmetic exactly: on unchanged values the
// factors are bit-identical.
//
// Pivot degradation: the frozen pivot of column k is accepted while it is
// still the largest of its column, ties included (the rule Factor pivots by).
// When new values break that bound — or produce an exact zero — the frozen
// order is no longer trustworthy, so Refactor falls back to a full Factor
// with fresh pivoting and adopts its factors in place. A fallback is seen on
// the Counter: it charges the full Factor cost instead of RefactorFlops.
func (f *sparseFactors) Refactor(a *sparse.CSR, c *vec.Counter) error {
	n := f.n
	if a.Rows != n || a.Cols != n {
		return fmt.Errorf("splu: Refactor needs %dx%d matrix, got %dx%d", n, n, a.Rows, a.Cols)
	}
	if a.NNZ() != len(f.avp) {
		return fmt.Errorf("splu: Refactor pattern mismatch: %d nnz, factored %d", a.NNZ(), len(f.avp))
	}
	// Equal counts are not equal patterns: a different pattern scattered
	// through the frozen map would yield garbage factors and no error.
	if patternHash(a) != f.pattern {
		return fmt.Errorf("splu: Refactor pattern mismatch: %d nnz as factored, but in other positions", a.NNZ())
	}
	x := f.rwork // all-zero between calls; the scatter-clears below keep it so
	lp, li, lx := f.lp, f.li, f.lx
	up, ux := f.up, f.ux
	for k := 0; k < n; k++ {
		// Scatter A's column k into pivotal coordinates.
		lo, hi := f.acp[k], f.acp[k+1]
		for t, i := range f.ari[lo:hi] {
			x[i] = a.Val[f.avp[lo+t]]
		}
		// Eliminate: stored U rows are in topological order, so every update
		// into x[jn] lands before jn is consumed. No zero-skips — the cost is
		// exactly refactorFlops.
		lo, hi = up[k], up[k+1]-1
		r0, rows := f.ucol(k, hi-lo)
		for t := range ux[lo:hi] {
			jn := urow(r0, rows, t)
			xj := x[jn]
			ux[lo+t] = xj
			x[jn] = 0
			p0, p1 := lp[jn]+1, lp[jn+1]
			colAxpy(x, li[p0:p1], lx[p0:p1], xj)
		}
		piv := x[k]
		x[k] = 0
		// Degradation check against the subdiagonal of the column.
		p0, p1 := lp[k]+1, lp[k+1]
		sub := li[p0:p1]
		a0 := math.Abs(piv)
		for _, i := range sub {
			if t := math.Abs(x[i]); t > a0 {
				a0 = t
			}
		}
		if piv == 0 || a0 == 0 || math.Abs(piv) < a0 {
			// Frozen pivot degraded: clear the scratch and re-factor with
			// fresh pivoting, adopting the new factors in place so callers
			// holding the Factorization keep a valid handle.
			for i := range x {
				x[i] = 0
			}
			nf, err := (&SparseLU{}).Factor(a, c)
			if err != nil {
				return err
			}
			*f = *nf.(*sparseFactors)
			return nil
		}
		ux[hi] = piv
		for t, i := range sub {
			lx[p0+t] = x[i] / piv
			x[i] = 0
		}
	}
	c.Add(f.refactorFlops)
	return nil
}

// RefactorFlops implements Refactorer: the exact, pattern-determined numeric
// cost of one Refactor pass.
func (f *sparseFactors) RefactorFlops() float64 { return f.refactorFlops }

// --- Dense-family refactorers: overwrite the persistent dense image and
// re-run the elimination in place.

// Refactor implements Refactorer for the dense LU adapter.
func (f *denseFact) Refactor(a *sparse.CSR, c *vec.Counter) error {
	if a.Rows != f.n || a.Cols != f.n {
		return fmt.Errorf("splu: Refactor needs %dx%d matrix, got %dx%d", f.n, f.n, a.Rows, a.Cols)
	}
	d := f.scratch
	for i := range d.Data {
		d.Data[i] = 0
	}
	for i := 0; i < f.n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			d.Data[i*d.Cols+a.ColInd[p]] = a.Val[p]
		}
	}
	return f.lu.Refactor(d, c)
}

// RefactorFlops implements Refactorer (value-dependent; see interface doc).
func (f *denseFact) RefactorFlops() float64 { return f.lu.Flops }

// Refactor implements Refactorer for the band adapter: refill the band
// storage (applying the frozen RCM permutation directly, so no permuted CSR
// is materialized) and re-run the gbtrf elimination in place.
func (f *bandFact) Refactor(a *sparse.CSR, c *vec.Counter) error {
	if a.Rows != f.n || a.Cols != f.n {
		return fmt.Errorf("splu: Refactor needs %dx%d matrix, got %dx%d", f.n, f.n, a.Rows, a.Cols)
	}
	band := f.lu.Band()
	band.Zero()
	if f.perm == nil {
		for i := 0; i < f.n; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				band.Set(i, a.ColInd[p], a.Val[p])
			}
		}
	} else {
		for i := 0; i < f.n; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				band.Set(f.perm[i], f.perm[a.ColInd[p]], a.Val[p])
			}
		}
	}
	return f.lu.Refactor(c)
}

// RefactorFlops implements Refactorer (value-dependent; see interface doc).
func (f *bandFact) RefactorFlops() float64 { return f.lu.Flops }
