// Package iterative provides the spectral-radius machinery needed to check
// Theorem 1's convergence hypotheses ρ(M⁻¹N) < 1 and ρ(|M⁻¹N|) < 1
// numerically (power iteration over the splitting operators) and the inner
// relaxation sweeps of the two-stage method.
package iterative

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
)

// PowerMethod estimates the spectral radius of the linear operator given by
// apply (y = T·x) using power iteration with a deterministic random start.
// It returns the estimate and whether the iteration stabilized within
// maxIter steps; for operators with complex dominant eigenvalue pairs the
// returned magnitude estimate is still meaningful (it tracks ‖Tᵏx‖ growth).
func PowerMethod(n int, apply func(y, x []float64), maxIter int, tol float64) (float64, bool) {
	rng := rand.New(rand.NewSource(12345))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var c vec.Counter
	nrm := vec.Norm2(x, &c)
	if nrm == 0 {
		return 0, true
	}
	vec.Scale(1/nrm, x, &c)
	y := make([]float64, n)
	// A sliding-window geometric mean of the growth factors is robust to
	// the sign flips and rotations of complex or negative dominant
	// eigenvalues, and unlike a cumulative mean it forgets the transient.
	const window = 32
	logs := make([]float64, 0, window)
	est, prev := 0.0, math.Inf(1)
	streak := 0
	for k := 0; k < maxIter; k++ {
		apply(y, x)
		nrm = vec.Norm2(y, &c)
		if nrm == 0 {
			return 0, true
		}
		if len(logs) == window {
			copy(logs, logs[1:])
			logs = logs[:window-1]
		}
		logs = append(logs, math.Log(nrm))
		sum := 0.0
		for _, l := range logs {
			sum += l
		}
		est = math.Exp(sum / float64(len(logs)))
		vec.Scale(1/nrm, y, &c)
		copy(x, y)
		if k >= window && math.Abs(est-prev) <= tol*math.Max(1, est) {
			streak++
			if streak >= 10 {
				return est, true
			}
		} else {
			streak = 0
		}
		prev = est
	}
	return est, false
}

// SplittingOperator returns the multisplitting iteration operator T = M⁻¹N
// for the Jacobi-like splitting A = M − N of the paper's Proposition 1: M
// agrees with A on the diagonal block rows/cols [r0,r1) (the AlDiag of
// Figure 2) and carries the point diagonal of A on the remaining rows. The
// returned apply closure computes y = T·x.
func SplittingOperator(a *sparse.CSR, r0, r1 int, d splu.Direct, c *vec.Counter) (func(y, x []float64), error) {
	n := a.Rows
	sub := a.Submatrix(r0, r1, r0, r1)
	f, err := d.Factor(sub, c)
	if err != nil {
		return nil, err
	}
	diag := a.Diagonal()
	for i, v := range diag {
		if v == 0 && (i < r0 || i >= r1) {
			return nil, fmt.Errorf("iterative: zero diagonal at row %d outside the block", i)
		}
	}
	// N = M − A: outside the block rows N is −(A row minus its diagonal);
	// inside the block rows N is −(A row with the diagonal-block columns
	// removed).
	co := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		inBlock := i >= r0 && i < r1
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColInd[p]
			if inBlock && j >= r0 && j < r1 {
				continue // part of M
			}
			if !inBlock && j == i {
				continue // point diagonal, part of M
			}
			co.Append(i, j, -a.Val[p])
		}
	}
	nMat := co.ToCSR()
	t := make([]float64, n)
	return func(y, x []float64) {
		nMat.MulVec(t, x, c)
		// y = M⁻¹t: the block rows use the factorization, the remaining
		// rows divide by the point diagonal.
		for i := 0; i < n; i++ {
			if i < r0 || i >= r1 {
				y[i] = t[i] / diag[i]
			}
		}
		f.Solve(y[r0:r1], t[r0:r1], c)
		c.Add(float64(n - (r1 - r0)))
	}, nil
}

// AbsSplittingOperator is like SplittingOperator but for |M⁻¹N|, the
// operator of the asynchronous convergence condition in Theorem 1. It
// materializes M⁻¹N column by column, so it is intended for the small
// matrices used in tests.
func AbsSplittingOperator(a *sparse.CSR, r0, r1 int, d splu.Direct, c *vec.Counter) (func(y, x []float64), error) {
	apply, err := SplittingOperator(a, r0, r1, d, c)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	cols := make([][]float64, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		col := make([]float64, n)
		apply(col, e)
		for i := range col {
			col[i] = math.Abs(col[i])
		}
		cols[j] = col
		e[j] = 0
	}
	return func(y, x []float64) {
		vec.Zero(y)
		for j := 0; j < n; j++ {
			xj := x[j]
			if xj == 0 {
				continue
			}
			col := cols[j]
			for i := range y {
				y[i] += float64(col[i] * xj)
			}
		}
		c.Add(2 * float64(n*n))
	}, nil
}
