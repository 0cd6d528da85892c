package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// idleProbe is the test side of idleStepHook. In checking mode it recomputes
// every step iterate is about to skip into scratch vectors and requires what
// the skip leaves behind — the iterate, a zero difference, the declared
// flops — bit for bit; in forcing mode it makes every step compute, which is
// the engine without the skip.
type idleProbe struct {
	t     *testing.T
	force bool

	mu      sync.Mutex // ranks of different lanes reach the hook concurrently
	skipped int
}

func installIdleProbe(t *testing.T, force bool) *idleProbe {
	p := &idleProbe{t: t, force: force}
	idleStepHook = p.hook
	t.Cleanup(func() { idleStepHook = nil })
	return p
}

func (p *idleProbe) hook(st *rankState) bool {
	if p.force {
		return true
	}
	for i := range st.bands {
		bs := &st.bands[i]
		scratch := *bs
		scratch.xSub = make([]float64, len(bs.xSub))
		scratch.xPrev = vec.Clone(bs.xPrev)
		scratch.rhs = make([]float64, len(bs.rhs))
		var cnt vec.Counter
		scratch.step(&cnt)
		if scratch.err != nil {
			p.t.Errorf("rank %d iter %d band %d: recomputed step failed: %v", st.rank, st.iter, i, scratch.err)
		}
		for k := range bs.xSub {
			if math.Float64bits(scratch.xSub[k]) != math.Float64bits(bs.xSub[k]) {
				p.t.Errorf("rank %d iter %d band %d: skipped step would have moved x[%d]: %x -> %x",
					st.rank, st.iter, i, k, math.Float64bits(bs.xSub[k]), math.Float64bits(scratch.xSub[k]))
				break
			}
		}
		if math.Float64bits(scratch.diff) != 0 {
			p.t.Errorf("rank %d iter %d band %d: skipped step has diff %g, not +0", st.rank, st.iter, i, scratch.diff)
		}
		if cnt.Flops() != bs.stepFlops {
			p.t.Errorf("rank %d iter %d band %d: step counts %v flops, the skip charges %v",
				st.rank, st.iter, i, cnt.Flops(), bs.stepFlops)
		}
	}
	p.mu.Lock()
	p.skipped++
	p.mu.Unlock()
	return false
}

// idleRun is everything of a run that must not depend on whether idle steps
// were computed or charged.
type idleRun struct {
	res     *Result
	commits int64
	syncs   int64
	record  runRecord
}

// idleSolve runs one solve with its record captured (recordOf).
func idleSolve(t *testing.T, pl *vgrid.Platform, hosts []*vgrid.Host, a *sparse.CSR, b []float64, o Options, workers int, plan *vgrid.FaultPlan) idleRun {
	t.Helper()
	e := vgrid.NewEngine(pl)
	if workers > 0 {
		e.SetWorkers(workers)
	}
	if plan != nil {
		e.SetFaultPlan(plan)
	}
	rec := &obs.Recorder{}
	e.Observe(rec)
	pend, err := Launch(e, hosts, a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	pend.res.Time = end
	pend.Finish()
	r := idleRun{res: pend.Result(), record: recordOf(e, rec)}
	r.commits, r.syncs = e.EventStats()
	if !r.res.Converged {
		t.Fatal("no convergence")
	}
	return r
}

func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.Time) != math.Float64bits(want.Time) {
		t.Errorf("%s: virtual time %v vs %v", what, got.Time, want.Time)
	}
	for r := range want.IterationsPerRank {
		if got.IterationsPerRank[r] != want.IterationsPerRank[r] {
			t.Errorf("%s: rank %d iterated %d times vs %d", what, r, got.IterationsPerRank[r], want.IterationsPerRank[r])
		}
		if got.IdleStepsPerRank[r] != want.IdleStepsPerRank[r] {
			t.Errorf("%s: rank %d counts %d idle steps vs %d", what, r, got.IdleStepsPerRank[r], want.IdleStepsPerRank[r])
		}
	}
	if got.IdleSteps != want.IdleSteps {
		t.Errorf("%s: idle steps %d vs %d", what, got.IdleSteps, want.IdleSteps)
	}
	if got.MsgsSent != want.MsgsSent || got.BytesSent != want.BytesSent {
		t.Errorf("%s: traffic %d msgs / %d bytes vs %d / %d", what, got.MsgsSent, got.BytesSent, want.MsgsSent, want.BytesSent)
	}
	if got.TotalFlops != want.TotalFlops {
		t.Errorf("%s: total flops %v vs %v", what, got.TotalFlops, want.TotalFlops)
	}
	if got.Resplits != want.Resplits {
		t.Errorf("%s: %d resplits vs %d", what, got.Resplits, want.Resplits)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: x[%d] differs bitwise: %v vs %v", what, i, got.X[i], want.X[i])
		}
	}
}

func sameRun(t *testing.T, what string, got, want idleRun) {
	t.Helper()
	sameResult(t, what, got.res, want.res)
	if got.commits != want.commits || got.syncs != want.syncs {
		t.Errorf("%s: %d commits / %d syncs vs %d / %d", what, got.commits, got.syncs, want.commits, want.syncs)
	}
	if d := got.record.diff(want.record); d != "" {
		t.Errorf("%s: obs records diverge: %s", what, d)
	}
}

// assertIdleStepsExact runs solve twice — idle steps charged and every one of
// them recomputed on the side, then every step computed — and requires the
// same run. It returns the checked run and how many steps it skipped; the
// forcing probe stays installed until the test ends.
func assertIdleStepsExact(t *testing.T, solve func() idleRun) (idleRun, int) {
	t.Helper()
	p := installIdleProbe(t, false)
	skipping := solve()
	installIdleProbe(t, true)
	sameRun(t, "charged vs computed", skipping, solve())
	return skipping, p.skipped
}

// TestIdleStepsExactOptionMatrix: on every configuration of the option
// matrix, charging an idle step is indistinguishable from computing it.
func TestIdleStepsExactOptionMatrix(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 240, Band: 150, PerRow: 6, Margin: 0.1, Seed: 5})
	b, _ := gen.RHSForSolution(a)
	skippedTotal := 0
	forEachMatrixConfig(t, func(t *testing.T, o Options) {
		if matrixRejected(o) {
			return
		}
		run, skipped := assertIdleStepsExact(t, func() idleRun {
			pl, hosts := matrixPlatform()
			return idleSolve(t, pl, hosts, a, b, o, 0, nil)
		})
		if !o.TwoStage.enabled() && o.BandsPerProc == 1 && skipped != run.res.IdleSteps {
			t.Errorf("skipped %d steps of %d idle ones", skipped, run.res.IdleSteps)
		}
		if o.TwoStage.enabled() && run.res.TwoStageFallbacks == 0 && run.res.IdleSteps != 0 {
			t.Errorf("two-stage run reports %d idle steps", run.res.IdleSteps)
		}
		skippedTotal += skipped
	})
	if skippedTotal == 0 {
		t.Error("no configuration skipped a step: the matrix proves nothing")
	}
}

// cluster3System is the benchmark's wan_async_narrowband shape at a tenth of
// its size, on the paper's two-site grid.
func cluster3System() (*sparse.CSR, []float64) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 2000, Band: 12, PerRow: 7, Seed: 1})
	b, _ := gen.RHSForSolution(a)
	return a, b
}

// TestIdleStepsExactOnCluster3 is the workload the skip exists for: the
// asynchronous policy on the two-site grid, where most steps wait on the
// WAN. Most steps must be idle, every one of them skipped, and the run the
// same as the all-compute one; for the plain asynchronous case also for one
// and four workers.
func TestIdleStepsExactOnCluster3(t *testing.T) {
	a, b := cluster3System()
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"async", Options{Tol: 1e-8, Async: true}},
		{"gateway", Options{Tol: 1e-8, Async: true, Gateway: true, TopoCollectives: true}},
		{"two-bands", Options{Tol: 1e-8, Async: true, BandsPerProc: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			solve := func(workers int) func() idleRun {
				return func() idleRun {
					plt := cluster.Cluster3(-1)
					return idleSolve(t, plt.Platform, plt.Hosts, a, b, tc.o, workers, nil)
				}
			}
			run, skipped := assertIdleStepsExact(t, solve(1))
			steps := 0
			for _, it := range run.res.IterationsPerRank {
				steps += it * max(tc.o.BandsPerProc, 1)
			}
			if run.res.IdleSteps == 0 || skipped == 0 {
				t.Fatalf("%d idle steps, %d skipped, of %d", run.res.IdleSteps, skipped, steps)
			}
			if tc.o.BandsPerProc <= 1 && skipped != run.res.IdleSteps {
				t.Errorf("skipped %d steps of %d idle ones", skipped, run.res.IdleSteps)
			}
			if tc.name == "async" {
				if 2*run.res.IdleSteps < steps {
					t.Errorf("only %d of %d asynchronous steps idle on the WAN grid", run.res.IdleSteps, steps)
				}
				installIdleProbe(t, false)
				sameRun(t, "1 vs 4 workers", solve(4)(), run)
			}
		})
	}
}

// TestIdleStepsExactAcrossSessionAndResplit covers the invalidators: a
// Session's Resolve (new right-hand side state, refactored bands) and an
// adaptive resplit (fresh rank state) must start their bands as never
// stepped.
func TestIdleStepsExactAcrossSessionAndResplit(t *testing.T) {
	t.Run("session", func(t *testing.T) {
		a, b := cluster3System()
		vals := perturbedVals(a, 2)
		steps := func() []*Result {
			sess, err := NewSession(func() (*vgrid.Platform, []*vgrid.Host) {
				plt := cluster.Cluster3(-1)
				return plt.Platform, plt.Hosts
			}, a, Options{Tol: 1e-8, Async: true})
			if err != nil {
				t.Fatal(err)
			}
			var out []*Result
			for _, v := range append([][]float64{nil}, vals...) {
				r, err := sess.Resolve(v, b)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, r)
			}
			return out
		}
		p := installIdleProbe(t, false)
		skipping := steps()
		installIdleProbe(t, true)
		computing := steps()
		for k := range skipping {
			sameResult(t, "resolve", skipping[k], computing[k])
			if skipping[k].IdleSteps == 0 {
				t.Errorf("resolve %d: no idle step", k)
			}
		}
		if p.skipped == 0 {
			t.Error("the session skipped nothing")
		}
	})
	t.Run("resplit", func(t *testing.T) {
		a := gen.DiagDominant(adaptGen)
		b, _ := gen.RHSForSolution(a)
		// Resplits are a synchronous feature, and a synchronous rank is idle
		// only once its neighbours' values have stopped moving in the last
		// bit: iterate to the floating-point fixed point.
		o := adaptOptions()
		o.Tol = 1e-300
		run, skipped := assertIdleStepsExact(t, func() idleRun {
			plt := cluster.Synthetic(6, 3, 0.3, 5)
			return idleSolve(t, plt.Platform, plt.Hosts, a, b, o, 0, degradedPlan())
		})
		if run.res.Resplits == 0 {
			t.Fatal("no resplit applied: the run does not cover the transition")
		}
		if skipped == 0 {
			t.Error("the adaptive run skipped nothing")
		}
	})
}

// TestIdleStepAllocBudget: charging an idle step allocates nothing, and the
// change tracking adds no allocation to the steps around it — an asynchronous
// cluster3 solve, most of whose steps are idle, stays inside the budget its
// set-up and message traffic need.
func TestIdleStepAllocBudget(t *testing.T) {
	a, b := cluster3System()
	var idle, iters int
	solve := func() {
		plt := cluster.Cluster3(-1)
		r, err := Solve(plt.Platform, plt.Hosts, a, b, Options{Tol: 1e-8, Async: true})
		if err != nil {
			t.Fatal(err)
		}
		idle, iters = r.IdleSteps, 0
		for _, it := range r.IterationsPerRank {
			iters += it
		}
	}
	allocs := testing.AllocsPerRun(2, solve)
	// Measured 1.4k, all of it set-up and protocol traffic; one allocation
	// per idle step would add 4.9k, one per computed step 0.8k.
	if allocs > 1800 {
		t.Errorf("%.0f allocations for %d steps (%d idle), budget is 1800", allocs, iters, idle)
	}
}
