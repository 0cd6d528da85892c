package splu

import (
	"math"

	"repro/internal/sparse"
	"repro/internal/vec"
)

// SolveT solves Aᵀ·x = b using the factors (b is not modified; may alias x).
// With A = P⁻¹·L·U the transpose system factors as Uᵀ·Lᵀ·P⁻ᵀ·x = b.
func (f *sparseFactors) SolveT(x, b []float64, c *vec.Counter) {
	n := f.n
	if len(x) != n || len(b) != n {
		panic("splu: SolveT shape mismatch")
	}
	y := f.work
	copy(y, b)
	// Forward solve Uᵀ·w = y: row k of Uᵀ is column k of U (diagonal last).
	up, ui, ux, us := f.up, f.ui, f.ux, f.us
	for k := 0; k < n; k++ {
		lo, hi := up[k], up[k+1]-1
		if r0 := int(us[k]); r0 >= 0 {
			y[k] = runDot(y[r0:r0+hi-lo], ux[lo:hi], y[k]) / ux[hi]
		} else {
			p := ^r0
			y[k] = colDot(y, ui[p:p+hi-lo], ux[lo:hi], y[k]) / ux[hi]
		}
	}
	// Back solve Lᵀ·v = w: row k of Lᵀ is column k of L (unit diagonal
	// first).
	lp, li, lx := f.lp, f.li, f.lx
	for k := n - 1; k >= 0; k-- {
		lo, hi := lp[k]+1, lp[k+1]
		y[k] = colDot(y, li[lo:hi], lx[lo:hi], y[k])
	}
	// x = Pᵀ·v.
	for i := 0; i < n; i++ {
		x[i] = y[f.pinv[i]]
	}
	c.Add(f.solveFlops)
}

// Norm1 returns the 1-norm (maximum absolute column sum) of a.
func Norm1(a *sparse.CSR) float64 {
	sums := make([]float64, a.Cols)
	for p, j := range a.ColInd {
		sums[j] += math.Abs(a.Val[p])
	}
	m := 0.0
	for _, s := range sums {
		if s > m {
			m = s
		}
	}
	return m
}

// CondEst1 estimates the 1-norm condition number κ₁(A) = ‖A‖₁·‖A⁻¹‖₁ of a
// previously factored matrix using Hager's algorithm (the LAPACK xGECON
// approach): ‖A⁻¹‖₁ is estimated from a few solves with A and Aᵀ. The
// factorization must come from SparseLU.Factor on the same matrix.
func CondEst1(a *sparse.CSR, fact Factorization, c *vec.Counter) float64 {
	f, ok := fact.(*sparseFactors)
	if !ok {
		panic("splu: CondEst1 needs a SparseLU factorization")
	}
	n := f.n
	if n == 0 {
		return 0
	}
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	est := 0.0
	for iter := 0; iter < 8; iter++ {
		// y = A⁻¹·x.
		f.Solve(y, x, c)
		newEst := 0.0
		for _, v := range y {
			newEst += math.Abs(v)
		}
		if iter > 0 && newEst <= est {
			break
		}
		est = newEst
		// z = A⁻ᵀ·sign(y).
		for i, v := range y {
			if v >= 0 {
				z[i] = 1
			} else {
				z[i] = -1
			}
		}
		f.SolveT(z, z, c)
		// Next x: the unit vector at the largest |z| component; stop when
		// no progress is possible.
		best, bestV := -1, 0.0
		for i, v := range z {
			if av := math.Abs(v); av > bestV {
				best, bestV = i, av
			}
		}
		xtz := 0.0
		for i := range x {
			xtz += float64(x[i] * z[i])
		}
		if bestV <= math.Abs(xtz) {
			break
		}
		vec.Zero(x)
		x[best] = 1
	}
	return Norm1(a) * est
}
