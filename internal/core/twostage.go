// Two-stage multisplitting: the exact inner band solve replaced by a bounded
// number of preconditioned relaxation sweeps (Brown/Bull/Bethune, arXiv
// 2009.12638), with a per-band, per-outer-iteration inner count schedule
// (Liu/Li nonstationary multisplitting, arXiv 1803.02541). The band LU that
// the stationary method uses as its exact solver shrinks to a narrow-band
// preconditioner M: factorization memory stays O(n·width) while the exact
// LU's fill grows with the band, which is what opens problem sizes where
// dslu and the stationary method report "nem". Everything downstream of the
// iterate — ship, exchange policies, fault tolerance, gateway aggregation,
// sharded lanes — is untouched: two-stage only changes how a band's xSub is
// produced.

package core

import (
	"fmt"

	"repro/internal/iterative"
	"repro/internal/obs"
	"repro/internal/splu"
	"repro/internal/vec"
)

// Inner-count schedules for the two-stage mode (TwoStage.Schedule).
const (
	// ScheduleFixed runs the same InnerIters sweeps every outer iteration
	// (the stationary two-stage method).
	ScheduleFixed = "fixed"
	// ScheduleRamp doubles the sweep count from 1 until it reaches
	// InnerIters: early outer iterations work on stale boundary data, so
	// polishing the inner solve there is wasted arithmetic.
	ScheduleRamp = "ramp"
	// ScheduleResidual adapts the count per band from the contraction the
	// previous inner stage achieved, between 1 and residualMaxSweeps,
	// starting at InnerIters. Purely local data, so determinism is kept.
	ScheduleResidual = "residual"
)

// residualMaxSweeps caps the residual-driven schedule's growth.
const residualMaxSweeps = 64

// TwoStage configures the two-stage (inner-iterative) solver mode; the zero
// value keeps the exact stationary method. See DESIGN.md §14.
type TwoStage struct {
	// InnerIters > 0 enables two-stage mode: each outer iteration solves its
	// band system with this many preconditioned relaxation sweeps (the base
	// count — the schedule may vary it per iteration) instead of the exact
	// band LU solve.
	InnerIters int
	// Schedule selects the inner-count schedule: ScheduleFixed (default),
	// ScheduleRamp or ScheduleResidual.
	Schedule string
	// Omega is the relaxation weight of the inner sweeps, in (0, 2);
	// default 1 (plain preconditioned Richardson).
	Omega float64
	// PrecondBand is the half-bandwidth of the inner band preconditioner M:
	// the |i−j| ≤ PrecondBand band of each band submatrix, factored once by
	// the banded LU. Default 16. A width at or above the submatrix bandwidth
	// makes the inner solve exact in one sweep.
	PrecondBand int
}

// enabled reports whether the two-stage mode is on.
func (t TwoStage) enabled() bool { return t.InnerIters > 0 }

// withDefaults fills the documented defaults (only meaningful when enabled).
func (t TwoStage) withDefaults() TwoStage {
	if t.Schedule == "" {
		t.Schedule = ScheduleFixed
	}
	if t.Omega == 0 {
		t.Omega = 1
	}
	if t.PrecondBand == 0 {
		t.PrecondBand = 16
	}
	return t
}

// validate rejects malformed two-stage configurations (after withDefaults).
func (t TwoStage) validate() error {
	if !t.enabled() {
		return nil
	}
	return t.Validate()
}

// Validate rejects inner-solve parameters the solver would refuse: an
// unknown Schedule, an Omega outside (0, 2) or a negative PrecondBand. Zero
// values stand for their defaults and InnerIters is not checked, so a
// command can check its flags before any work starts.
func (t TwoStage) Validate() error {
	t = t.withDefaults()
	switch t.Schedule {
	case ScheduleFixed, ScheduleRamp, ScheduleResidual:
	default:
		return fmt.Errorf("core: unknown inner schedule %q (want %s, %s or %s)",
			t.Schedule, ScheduleFixed, ScheduleRamp, ScheduleResidual)
	}
	if !(t.Omega > 0 && t.Omega < 2) {
		return fmt.Errorf("core: two-stage omega %v outside (0,2)", t.Omega)
	}
	if t.PrecondBand < 0 {
		return fmt.Errorf("core: two-stage preconditioner band %d < 0", t.PrecondBand)
	}
	return nil
}

// innerSchedule is the per-band nonstationary inner-count state. next is
// driven only by the outer iteration number and this band's own inner
// contraction history, so schedules stay deterministic under any exchange
// policy, worker count and lane count.
type innerSchedule struct {
	ts TwoStage
	k  int // residual-driven current count
}

func newInnerSchedule(ts TwoStage) innerSchedule { return innerSchedule{ts: ts, k: ts.InnerIters} }

// next returns the sweep count for outer iteration iter (1-based).
func (s *innerSchedule) next(iter int) int {
	switch s.ts.Schedule {
	case ScheduleRamp:
		k := 1
		for i := 1; i < iter && k < s.ts.InnerIters; i++ {
			k <<= 1
		}
		if k > s.ts.InnerIters {
			k = s.ts.InnerIters
		}
		return k
	case ScheduleResidual:
		return s.k
	default:
		return s.ts.InnerIters
	}
}

// observe feeds one inner stage's contraction back into the residual-driven
// schedule: a stage that kept more than a quarter of its starting residual
// doubles the next count, one that shed 99% halves it.
func (s *innerSchedule) observe(r iterative.InnerResult) {
	if s.ts.Schedule != ScheduleResidual || r.Res0 == 0 {
		return
	}
	limit := residualMaxSweeps
	if s.ts.InnerIters > limit {
		limit = s.ts.InnerIters
	}
	ratio := r.Res / r.Res0
	switch {
	case ratio > 0.25 && s.k < limit:
		if s.k *= 2; s.k > limit {
			s.k = limit
		}
	case ratio < 0.01 && s.k > 1:
		s.k /= 2
	}
}

// twoStageState is the per-band inner-stage state riding on bandState: the
// band preconditioner, the schedule, scratch for the sweeps and the outcome
// of the last inner stage.
type twoStageState struct {
	opt   TwoStage
	pc    splu.Preconditioner
	sched innerSchedule
	r, t  []float64 // sweep scratch, arena-backed

	sweeps int // count chosen for the current iteration
	res    iterative.InnerResult

	// fellBack is set once the inner iteration diverged and the band
	// switched to the exact solve; the two-stage path is then skipped for the
	// rest of the band's life (the preconditioner demonstrably does not
	// contract this band).
	fellBack bool

	// Per-solve tallies, aggregated into Result.
	totalSweeps int64
	innerFlops  float64
	fallbacks   int
}

// twoStage reports whether the band currently steps through inner sweeps.
func (bs *bandState) twoStage() bool { return bs.ts != nil && !bs.ts.fellBack }

// stageCost returns the exact declared cost of one two-stage outer step with
// k inner sweeps: the dependency SpMV, the sweeps (with their closing
// residual evaluation) and the successive-iterate difference norm.
func (bs *bandState) stageCost(k int) float64 {
	return 2*float64(bs.depMat.NNZ()) + iterative.PrecondSweepsFlops(bs.sub, bs.ts.pc, k) + 2*float64(bs.band.Size())
}

// buildTwoStage factors a band's preconditioner (deferred segment, like the
// exact factorization: the banded elimination cost is value-dependent). A
// singular preconditioner band is reported as not-built so loadBand falls
// back to the exact path; a memory failure is final.
func (st *rankState) buildTwoStage(bs *bandState) (bool, error) {
	o := st.o
	ctx := st.ctx
	var pc splu.Preconditioner
	var pcErr error
	// Floor 0: nothing is provable — a band whose multipliers all vanish
	// counts no flop, and a singular one, which falls back, counts none.
	st.c.ComputeDeferred(0, func() float64 {
		pc, pcErr = splu.NewBandPreconditioner(bs.sub, o.TwoStage.PrecondBand, ctx.Cnt())
		return ctx.Counter.Flops() - ctx.Charged
	})
	if pcErr != nil {
		return false, nil
	}
	if err := ctx.Alloc(pc.Bytes()); err != nil {
		return false, err
	}
	bs.ts = &twoStageState{opt: o.TwoStage, pc: pc} // startRun arms the schedule
	return true, nil
}

// tsStep is one band's two-stage step (run from the segment body, so
// worker-pool rules apply: only this band's state, never the simulator). On
// divergence it restores the previous iterate so the exact redo starts clean.
func (bs *bandState) tsStep(cnt *vec.Counter) {
	ts := bs.ts
	copy(bs.rhs, bs.bSub)
	if len(bs.depCols) > 0 {
		bs.depMat.MulVecSub(bs.rhs, bs.z, cnt)
	}
	ts.res, bs.err = iterative.PrecondSweeps(bs.sub, ts.pc, bs.xSub, bs.rhs,
		ts.opt.Omega, ts.sweeps, ts.r, ts.t, cnt)
	if bs.err != nil {
		copy(bs.xSub, bs.xPrev)
		return
	}
	bs.diff = vec.DiffNormInf(bs.xSub, bs.xPrev, cnt)
	copy(bs.xPrev, bs.xSub)
}

// twoStageFallback switches a band whose inner iteration diverged to the
// exact solve: factor the band (deferred, full memory accounting — on an
// undersized host this is where the memory wall reappears) and redo the
// band's step of the current iteration exactly. The aborted inner segment
// declared more arithmetic than it performed, so the charge watermark is
// wound back to the counted work before continuing.
func (st *rankState) twoStageFallback(bs *bandState) error {
	ctx := st.ctx
	if f := ctx.Counter.Flops(); f < ctx.Charged {
		ctx.Charged = f
	}
	start := st.c.Now()
	f0 := ctx.Counter.Flops()
	if err := st.factorBand(bs); err != nil {
		return fmt.Errorf("two-stage fallback: %w", err)
	}
	if err := ctx.Alloc(bs.fact.Bytes()); err != nil {
		return err
	}
	st.factFlops += ctx.Counter.Flops() - f0
	bs.ts.fellBack = true
	bs.ts.fallbacks++
	if sc := ctx.Observe(); sc != nil {
		sc.Span(obs.Span{Cat: obs.CatFact, Name: "fallback-factor",
			Start: start, End: st.c.Now(), Flops: ctx.Counter.Flops() - f0})
		sc.Count("twostage_fallback", 1)
	}
	st.c.ComputeSeg(bs.stepFlops, func() { bs.step(ctx.Counter) })
	if bs.err != nil {
		return fmt.Errorf("rank %d: %w at iteration %d", st.rank, bs.err, st.iter)
	}
	return nil
}
