package iterative

import (
	"errors"
	"fmt"

	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
)

// ErrDiverged is returned when a relaxation iteration's residual grows
// across sweeps instead of contracting. Outer loops catch it (errors.Is) to
// fall back to the exact band solve instead of iterating on garbage.
var ErrDiverged = errors.New("iterative: iteration diverging")

// Divergence thresholds of PrecondSweeps: a sweep residual
// beyond divergeTotal times the starting residual, or divergeStreak
// consecutive sweeps each growing by more than divergeGrowth, is declared
// divergent. The streak requirement keeps transient growth (a rough warm
// start, an over-relaxed first sweep) from tripping the error.
const (
	divergeGrowth = 2.0
	divergeStreak = 2
	divergeTotal  = 10.0
)

// InnerResult reports one inner relaxation stage of the two-stage method.
type InnerResult struct {
	// Sweeps is the number of preconditioned updates actually applied
	// (short of the request only when divergence cut the stage off).
	Sweeps int
	// Res0 is the ∞-norm residual of the warm start, before any update.
	Res0 float64
	// Res is the ∞-norm residual after the final update. Res/Res0 is the
	// contraction the stage achieved — the signal the residual-driven
	// schedule feeds on.
	Res float64
}

// SweepFlops returns the exact arithmetic PrecondSweeps counts per
// residual+update sweep on a with preconditioner m: the residual SpMV, the
// residual norm, the preconditioner application and the relaxed update.
func SweepFlops(a *sparse.CSR, m splu.Preconditioner) float64 {
	n := float64(a.Rows)
	return 2*float64(a.NNZ()) + n + m.ApplyFlops() + 2*n
}

// PrecondSweepsFlops returns the exact arithmetic PrecondSweeps counts for
// a full k-sweep stage, including the closing residual evaluation that
// measures the stage's contraction.
func PrecondSweepsFlops(a *sparse.CSR, m splu.Preconditioner, k int) float64 {
	n := float64(a.Rows)
	return float64(float64(k)*SweepFlops(a, m)) + 2*float64(a.NNZ()) + n
}

// PrecondSweeps runs k sweeps of the preconditioned weighted-Richardson
// iteration x ← x + omega·M⁻¹(b − A·x) — the inner stage of two-stage
// multisplitting. x provides the warm start and receives the result; r and
// t are caller-owned scratch vectors of length n (kept outside so the
// steady-state engine loop allocates nothing). The flop count is exactly
// PrecondSweepsFlops(a, m, k) when all k sweeps run.
//
// The iteration is declared divergent — wrapping ErrDiverged — when the
// sweep residual grows past divergeTotal times the warm-start residual,
// grows divergeStreak sweeps in a row by more than divergeGrowth each, or
// produces a non-finite iterate. On error x is left mid-iteration; callers
// restore their previous iterate and fall back to the exact solve.
func PrecondSweeps(a *sparse.CSR, m splu.Preconditioner, x, b []float64, omega float64, k int, r, t []float64, c *vec.Counter) (InnerResult, error) {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n || len(r) != n || len(t) != n {
		panic("iterative: PrecondSweeps shape mismatch")
	}
	if m.N() != n {
		panic(fmt.Sprintf("iterative: preconditioner dimension %d != %d", m.N(), n))
	}
	if k < 1 {
		panic("iterative: PrecondSweeps needs k >= 1")
	}
	if !(omega > 0 && omega < 2) {
		return InnerResult{}, fmt.Errorf("iterative: relaxation weight %v outside (0,2)", omega)
	}
	res := InnerResult{}
	prev := 0.0
	streak := 0
	for s := 0; s <= k; s++ {
		copy(r, b)
		a.MulVecSub(r, x, c)
		rn := vec.NormInf(r, c)
		if s == 0 {
			res.Res0 = rn
		} else if res.Res0 > 0 {
			if rn > divergeTotal*res.Res0 {
				return res, fmt.Errorf("%w: residual %.3g vs start %.3g after %d sweeps",
					ErrDiverged, rn, res.Res0, s)
			}
			if rn > divergeGrowth*prev {
				if streak++; streak >= divergeStreak {
					return res, fmt.Errorf("%w: residual grew %d sweeps in a row (%.3g -> %.3g)",
						ErrDiverged, streak, res.Res0, rn)
				}
			} else {
				streak = 0
			}
		}
		res.Res = rn
		if s == k {
			break
		}
		prev = rn
		m.Apply(t, r, c)
		vec.Axpy(omega, t, x, c)
		if !vec.AllFinite(x) {
			res.Sweeps = s + 1
			return res, fmt.Errorf("%w: non-finite iterate after sweep %d", ErrDiverged, s+1)
		}
		res.Sweeps = s + 1
	}
	return res, nil
}
