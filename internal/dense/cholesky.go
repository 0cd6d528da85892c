package dense

import (
	"errors"
	"math"

	"repro/internal/vec"
)

// ErrNotSPD is returned when a Cholesky factorization meets a non-positive
// pivot: the matrix is not symmetric positive definite.
var ErrNotSPD = errors.New("dense: matrix is not symmetric positive definite")

// Cholesky is the factorization A = L·Lᵀ of a symmetric positive definite
// matrix, with L lower triangular.
type Cholesky struct {
	N     int     // dimension of A
	L     *Matrix // lower triangle holds L; upper is unused
	Flops float64 // arithmetic the factorization spent
}

// FactorCholesky computes the Cholesky factorization of a, which must be
// symmetric positive definite (symmetry is trusted; definiteness is
// checked). a is not modified.
func FactorCholesky(a *Matrix, c *vec.Counter) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("dense: FactorCholesky needs a square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	flops, err := factorCholeskyInto(l, a)
	if err != nil {
		return nil, err
	}
	c.Add(flops)
	return &Cholesky{N: n, L: l, Flops: flops}, nil
}

// Refactor recomputes L from the values of a, overwriting the existing factor
// in place with no allocation. On error the factor is invalid.
func (f *Cholesky) Refactor(a *Matrix, c *vec.Counter) error {
	if a.Rows != f.N || a.Cols != f.N {
		return errors.New("dense: Cholesky Refactor shape mismatch")
	}
	flops, err := factorCholeskyInto(f.L, a)
	if err != nil {
		return err
	}
	f.Flops = flops
	c.Add(flops)
	return nil
}

// factorCholeskyInto writes the Cholesky factor of a into l's lower triangle.
// Every lower-triangle entry is overwritten, so l may hold stale factors.
func factorCholeskyInto(l, a *Matrix) (float64, error) {
	n := a.Rows
	flops := 0.0
	for j := 0; j < n; j++ {
		s := a.At(j, j)
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			s -= lj[k] * lj[k]
		}
		flops += 2 * float64(j)
		if s <= 0 {
			return 0, ErrNotSPD
		}
		d := math.Sqrt(s)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			t := a.At(i, j)
			li := l.Row(i)
			for k := 0; k < j; k++ {
				t -= li[k] * lj[k]
			}
			l.Set(i, j, t/d)
			flops += 2*float64(j) + 1
		}
	}
	return flops, nil
}

// Solve computes x with A·x = b.
func (f *Cholesky) Solve(x, b []float64, c *vec.Counter) {
	n := f.N
	if len(x) != n || len(b) != n {
		panic("dense: Cholesky Solve shape mismatch")
	}
	copy(x, b)
	// Forward solve L·y = b.
	for i := 0; i < n; i++ {
		row := f.L.Row(i)
		s := x[i]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	// Back solve Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= f.L.At(k, i) * x[k]
		}
		x[i] = s / f.L.At(i, i)
	}
	c.Add(2 * float64(n) * float64(n))
}
