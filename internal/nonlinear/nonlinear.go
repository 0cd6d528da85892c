// Package nonlinear extends the multisplitting-direct method to nonlinear
// systems, the generalization the paper announces in its conclusion and
// applies in its companion work (Bahi, Couturier, Salomon, IPDPS 2005: 3-D
// transport of pollutants). Semilinear systems
//
//	F(x) = A·x + φ(x) − b = 0
//
// with a diagonal nonlinearity φ (φ(x)_i = φ_i(x_i)) are solved by an outer
// Newton iteration whose linear Jacobian systems
//
//	(A + diag(φ'_i(x_i)))·δ = −F(x)
//
// are each solved with the multisplitting-direct method across a simulated
// grid. For monotone nonlinearities (φ'_i ≥ 0) the Jacobian inherits A's
// diagonal dominance, so Theorem 1 keeps applying to every inner solve.
package nonlinear

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// ErrNewtonNoConvergence is returned when the outer iteration hits its cap.
var ErrNewtonNoConvergence = errors.New("nonlinear: Newton iteration did not converge")

// Diagonal is a componentwise nonlinearity with its derivative.
type Diagonal struct {
	// Phi evaluates φ_i(v).
	Phi func(i int, v float64) float64
	// DPhi evaluates φ'_i(v).
	DPhi func(i int, v float64) float64
}

// Problem is the semilinear system A·x + φ(x) = b.
type Problem struct {
	// A is the linear part.
	A *sparse.CSR
	// Phi is the diagonal nonlinearity φ.
	Phi Diagonal
	// B is the right-hand side b.
	B []float64
}

// Residual computes r = b − A·x − φ(x) and returns ‖r‖∞.
func (p *Problem) Residual(r, x []float64, c *vec.Counter) float64 {
	p.A.MulVec(r, x, c)
	for i := range r {
		r[i] = p.B[i] - r[i] - p.Phi.Phi(i, x[i])
	}
	c.Add(2 * float64(len(r)))
	return vec.NormInf(r, c)
}

// jacTemplate is the persistent Jacobian A + diag(φ'(x)): its pattern — A's
// pattern with the diagonal made structurally complete (explicit zeros where
// A lacks a diagonal entry) — is identical for every Newton step, so it is
// built once and only the values are rewritten per step. The fixed pattern is
// what lets the inner solver sessions refactorize instead of factoring.
type jacTemplate struct {
	j       *sparse.CSR
	aPos    []int // source position in A.Val per entry of j, or -1 (added diagonal)
	diagPos []int // position in j.Val of each diagonal entry
}

func newJacTemplate(a *sparse.CSR) *jacTemplate {
	n := a.Rows
	co := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		hasDiag := false
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if a.ColInd[p] == i {
				hasDiag = true
			}
			co.Append(i, a.ColInd[p], a.Val[p])
		}
		if !hasDiag {
			co.Append(i, i, 0)
		}
	}
	t := &jacTemplate{j: co.ToCSR()}
	t.aPos = make([]int, t.j.NNZ())
	t.diagPos = make([]int, n)
	for i := 0; i < n; i++ {
		ap := a.RowPtr[i]
		for p := t.j.RowPtr[i]; p < t.j.RowPtr[i+1]; p++ {
			jc := t.j.ColInd[p]
			if jc == i {
				t.diagPos[i] = p
			}
			if ap < a.RowPtr[i+1] && a.ColInd[ap] == jc {
				t.aPos[p] = ap
				ap++
			} else {
				t.aPos[p] = -1
			}
		}
	}
	return t
}

// update rewrites the template values to A + diag(φ'(x)) in place.
func (t *jacTemplate) update(p *Problem, x []float64, c *vec.Counter) {
	for q, ap := range t.aPos {
		if ap >= 0 {
			t.j.Val[q] = p.A.Val[ap]
		} else {
			t.j.Val[q] = 0
		}
	}
	for i, q := range t.diagPos {
		t.j.Val[q] += p.Phi.DPhi(i, x[i])
	}
	c.Add(float64(t.j.Rows))
}

// Options configures the Newton-multisplitting solver.
type Options struct {
	// Inner configures every inner multisplitting solve.
	Inner core.Options
	// NewtonTol is the outer residual tolerance ‖F(x)‖∞ (default 1e-8).
	NewtonTol float64
	// MaxNewton caps the outer iterations (default 50).
	MaxNewton int
	// NoRefactor disables the numeric refactorization of the inner solver
	// sessions, re-factoring every band from scratch on every Newton step
	// (the pre-session baseline, kept for ablation measurements).
	NoRefactor bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.NewtonTol == 0 {
		out.NewtonTol = 1e-8
	}
	if out.MaxNewton == 0 {
		out.MaxNewton = 50
	}
	return out
}

// Result reports a Newton-multisplitting solve.
type Result struct {
	// X is the last Newton iterate: the solution when the error is nil.
	X []float64
	// NewtonIterations is the number of outer steps taken.
	NewtonIterations int
	// InnerIterations sums the multisplitting iterations of all inner
	// solves.
	InnerIterations int
	// Residual is the final ‖F(x)‖∞.
	Residual float64
	// Time accumulates the virtual time of the inner solves.
	Time float64
	// FactorFlops is the total factorization + refactorization work of the
	// inner solves (the cost the persistent sessions amortize: one full
	// factorization per band, then cheap numeric refactors).
	FactorFlops float64
}

// SolveDistributed runs Newton with distributed multisplitting inner solves
// on the given platform builder. Each outer step solves its Jacobian system
// on a fresh engine (platforms are stateful), but the solver state — band
// submatrices, communication plans, factorizations — persists in a
// core.Session: after the first step every band refactorizes through its
// frozen pattern instead of factoring from scratch, and the per-step
// factorization time in virtual seconds collapses accordingly. The virtual
// times accumulate.
func SolveDistributed(newPlatform func() (*vgrid.Platform, []*vgrid.Host), p *Problem, opt Options) (*Result, error) {
	o := opt.withDefaults()
	n := p.A.Rows
	if p.A.Cols != n || len(p.B) != n {
		return nil, fmt.Errorf("nonlinear: shape mismatch")
	}
	var c vec.Counter
	tpl := newJacTemplate(p.A)
	sess, err := core.NewSession(newPlatform, tpl.j, o.Inner)
	if err != nil {
		return nil, err
	}
	sess.NoRefactor = o.NoRefactor
	x := make([]float64, n)
	r := make([]float64, n)
	res := &Result{}
	defer func() { res.FactorFlops = sess.FactorFlops }()
	for k := 1; k <= o.MaxNewton; k++ {
		res.NewtonIterations = k
		res.Residual = p.Residual(r, x, &c)
		if res.Residual <= o.NewtonTol {
			res.X = x
			return res, nil
		}
		tpl.update(p, x, &c)
		inner, err := sess.Resolve(tpl.j.Val, r)
		if err != nil {
			return nil, fmt.Errorf("nonlinear: Newton step %d: %w", k, err)
		}
		res.InnerIterations += inner.Iterations
		res.Time += inner.Time
		vec.Axpy(1, inner.X, x, &c)
		if !vec.AllFinite(x) {
			return nil, fmt.Errorf("nonlinear: Newton step %d diverged", k)
		}
	}
	res.X = x
	res.Residual = p.Residual(r, x, &c)
	if res.Residual <= o.NewtonTol {
		return res, nil
	}
	return res, ErrNewtonNoConvergence
}
