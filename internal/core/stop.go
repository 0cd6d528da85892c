package core

import (
	"math"

	"repro/internal/vec"
)

// stopper produces the scalar convergence criterion a rank compares against
// Tol each iteration. Two strategies: the paper's cheap successive-iterate
// difference, and the more expensive true band residual. series names the
// criterion in the observability exports ("diff" or "residual").
type stopper interface {
	crit(st *rankState) float64
	series() string
}

func newStopper(o Options) stopper {
	if o.UseResidual {
		return residualStopper{}
	}
	return iterateStopper{}
}

// iterateStopper reuses ‖x_new − x_old‖∞ already measured during the compute
// step, so it adds no flops of its own.
type iterateStopper struct{}

func (iterateStopper) crit(st *rankState) float64 { return st.diff }

func (iterateStopper) series() string { return "diff" }

// residualStopper evaluates ‖BSub − Dep·z − ASub·XSub‖∞ — the genuine local
// residual of the band equation given the current dependency values — over
// the rank's bands. The band's rhs vector is free between two computation
// steps (each step rebuilds it from BSub) and serves as the scratch.
type residualStopper struct{}

func (residualStopper) crit(st *rankState) float64 {
	cnt := st.ctx.Counter
	crit := 0.0
	for i := range st.bands {
		bs := &st.bands[i]
		copy(bs.rhs, bs.bSub)
		if len(bs.depCols) > 0 {
			bs.depMat.MulVecSub(bs.rhs, bs.z, cnt)
		}
		bs.sub.MulVecSub(bs.rhs, bs.xSub, cnt)
		crit = math.Max(crit, vec.NormInf(bs.rhs, cnt))
	}
	return crit
}

func (residualStopper) series() string { return "residual" }
