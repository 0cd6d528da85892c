package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dslu"
	"repro/internal/iterative"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// The layer probes of the traced pass. Each times public calls of one layer
// on the workload's own inputs, single-threaded, from bench's side of the
// boundary: the bands come from core.NewDecomposition and CSR.Submatrix, the
// plan from plan.Build with the spec core uses. Counts are exact; byte
// figures derived from array sizes are "computed" (they ignore cache misses).

// nsPerCall returns the median host nanoseconds of fn over five batches of
// ten calls.
func nsPerCall(fn func()) float64 {
	const batches, calls = 5, 10
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / calls
	}
	return median(per)
}

// buildPlan mirrors core's private plan construction: one band per rank.
func buildPlan(a *sparse.CSR, d *core.Decomposition, nranks int) (*plan.Plan, error) {
	bands := make([]plan.Band, d.L())
	for i, b := range d.Bands {
		bands[i] = plan.Band{Start: b.Start, End: b.End, Lo: b.Lo, Hi: b.Hi}
	}
	return plan.Build(a, plan.Spec{
		N:                d.N,
		Bands:            bands,
		NRanks:           nranks,
		Owner:            func(b int) int { return b % nranks },
		Contributors:     d.Contributors,
		ContributorsInto: d.ContributorsInto,
		Weight:           d.Weight,
	})
}

// solverProbes fills the sparse, splu, iterative, plan, mp, core and obs
// metrics of a solver workload from the decomposition of its first solve.
func solverProbes(in *instance, pc *probeCtx) error {
	opt := in.solves[0]
	nranks := len(in.plat().Hosts)
	d, err := core.NewDecomposition(in.a.Rows, nranks, opt.Overlap, opt.Scheme)
	if err != nil {
		return err
	}
	m := pc.m

	// sparse: the global SpMV and the band extraction of the launch phase.
	var c vec.Counter
	x, y := make([]float64, in.a.Cols), make([]float64, in.a.Rows)
	vec.Fill(x, 1)
	m["sparse.spmv_ns_per_nnz"] = nsPerCall(func() { in.a.MulVec(y, x, &c) }) / float64(in.a.NNZ())
	m["sparse.spmv_computed_bytes"] = float64(16*in.a.NNZ() + 8*(in.a.Rows+1) + 8*in.a.Rows + 8*in.a.Cols)
	subs := make([]*sparse.CSR, nranks)
	pc.span("sparse.submatrix", func() {
		for r, b := range d.Bands {
			subs[r] = in.a.Submatrix(b.Lo, b.Hi, b.Lo, b.Hi)
		}
	})

	// plan: one packed message per send group and iteration.
	var cp *plan.Plan
	pc.span("plan.build", func() { cp, err = buildPlan(in.a, d, nranks) })
	if err != nil {
		return err
	}
	var groupVals []float64
	for _, rp := range cp.Ranks {
		for _, g := range rp.Send {
			groupVals = append(groupVals, float64(g.Vals))
			m["plan.bytes_per_iter"] += 8 * float64(g.Vals)
		}
	}
	m["plan.msgs_per_iter"] = float64(len(groupVals))

	// splu / iterative, and from them core: what the single-worker
	// repetition spent outside its kernels — every factorization once per
	// solve, every rank's solve (or inner sweeps) once per iteration. An
	// estimate from outside, not a measurement inside core.
	var factorS, iterS float64
	if opt.TwoStage.InnerIters > 0 {
		factorS, iterS, err = twoStageKernelProbes(pc, opt.TwoStage, subs)
	} else {
		factorS, iterS, err = exactKernelProbes(pc, subs)
	}
	if err != nil {
		return err
	}
	m["core.nonkernel_s"] = pc.wall1 - factorS*float64(len(in.solves)) - iterS
	if pc.wall1 > 0 {
		m["core.nonkernel_share"] = m["core.nonkernel_s"] / pc.wall1
	}
	if t := pc.sp.perRep("core.run"); len(t) > 0 && m["vgrid.commits"] > 0 {
		m["vgrid.ns_per_commit_single"] = 1e9 * median(t) / m["vgrid.commits"]
	}

	if err := recorderProbe(in, pc); err != nil {
		return err
	}
	return mpProbe(in, pc, int(median(groupVals)))
}

// exactKernelProbes factors, solves with and refactors every band with the
// exact sparse LU, single-threaded. It returns the host seconds of all the
// factorizations, and of the triangular solves the reference repetition's
// iterations replay to.
func exactKernelProbes(pc *probeCtx, subs []*sparse.CSR) (factorS, iterS float64, err error) {
	m := pc.m
	var c vec.Counter
	for r, sub := range subs {
		var f splu.Factorization
		pc.span("splu.factor", func() { f, err = (&splu.SparseLU{}).Factor(sub, &c) })
		if err != nil {
			return 0, 0, err
		}
		m["splu.factor_flops"] += f.FactorFlops()
		m["splu.factor_bytes"] += float64(f.Bytes())
		m["splu.solve_flops"] += f.SolveFlops()
		if nz, ok := f.(interface{ NNZFactors() (int, int) }); ok {
			l, u := nz.NNZFactors()
			m["splu.fill_nnz"] += float64(l + u)
		}
		xs, rhs := make([]float64, sub.Rows), make([]float64, sub.Rows)
		vec.Fill(rhs, 1)
		solveNS := nsPerCall(func() { f.Solve(xs, rhs, &c) })
		m["splu.solve_ns_per_call"] += solveNS
		iterS += 1e-9 * solveNS * float64(pc.ref.rankIters[r])
		if rf, ok := f.(splu.Refactorer); ok {
			pc.span("splu.refactor", func() { err = rf.Refactor(sub, &c) })
			if err != nil {
				return 0, 0, err
			}
			m["splu.refactor_flops"] += rf.RefactorFlops()
		}
	}
	factorS = sum(pc.sp.perRep("splu.factor"))
	if factorS > 0 {
		m["splu.factor_mflops_per_s"] = m["splu.factor_flops"] / factorS / 1e6
	}
	return factorS, iterS, nil
}

// twoStageKernelProbes is the two-stage counterpart: the band preconditioner
// and the inner sweeps take the place of the exact factorization and solve.
func twoStageKernelProbes(pc *probeCtx, ts core.TwoStage, subs []*sparse.CSR) (factorS, iterS float64, err error) {
	m := pc.m
	var c vec.Counter
	for _, sub := range subs {
		var pre splu.Preconditioner
		pc.span("splu.precond_factor", func() { pre, err = splu.NewBandPreconditioner(sub, ts.PrecondBand, &c) })
		if err != nil {
			return 0, 0, err
		}
		n := sub.Rows
		xs, rhs, r, t := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		vec.Fill(rhs, 1)
		m["splu.precond_apply_ns"] += nsPerCall(func() { pre.Apply(xs, rhs, &c) })
		m["iterative.sweep_flops"] += iterative.SweepFlops(sub, pre)
		stage := nsPerCall(func() {
			vec.Fill(xs, 0)
			if _, e := iterative.PrecondSweeps(sub, pre, xs, rhs, 1, ts.InnerIters, r, t, &c); e != nil {
				err = e
			}
		})
		if err != nil {
			return 0, 0, err
		}
		m["iterative.sweep_ns"] += stage / float64(ts.InnerIters)
	}
	// Result.InnerSweeps totals the ranks; a sweep costs the mean band's.
	iterS = 1e-9 * m["iterative.inner_sweeps"] * m["iterative.sweep_ns"] / float64(len(subs))
	return sum(pc.sp.perRep("splu.precond_factor")), iterS, nil
}

// recorderProbe repeats the workload's repetition with an obs.Recorder on
// every solve (the difference to the plain repetition is the recorder's
// price) and walks each recording's critical path.
func recorderProbe(in *instance, pc *probeCtx) error {
	m := pc.m
	out, err := solverRep(in, repOpts{observe: true})
	if err != nil {
		return err
	}
	if out.digest != pc.ref.digest {
		return errors.New("attaching the recorder changed the simulated statistics")
	}
	m["obs.record_overhead_s"] = out.wall.Seconds() - pc.wall
	var compute, network, wait, makespan float64
	for _, rec := range out.recs {
		m["obs.spans"] += float64(rec.NumSpans())
		var cpr *obs.CPReport
		pc.span("obs.critpath", func() { cpr = obs.CriticalPath(rec) })
		if cpr != nil {
			compute, network, wait, makespan = compute+cpr.Compute, network+cpr.Network, wait+cpr.Wait, makespan+cpr.Makespan
		}
	}
	if makespan > 0 {
		m["core.cp_compute_share"] = compute / makespan
		m["core.cp_network_share"] = network / makespan
		m["core.cp_wait_share"] = wait / makespan
	}
	return nil
}

// mpProbe times mp's point-to-point and collective paths: a micro-run with
// one rank per host of the workload's platform, messages of vals floats (the
// plan's median). The figures are host nanoseconds, vgrid handoffs included.
func mpProbe(in *instance, pc *probeCtx, vals int) error {
	const rounds = 200
	ranks := 0
	run := func(body func(c *mp.Comm) error) (float64, error) {
		plt := in.plat()
		ranks = len(plt.Hosts)
		e := vgrid.NewEngine(plt.Platform)
		mp.Launch(e, plt.Hosts, "probe", body)
		t0 := time.Now()
		_, err := e.Run()
		return float64(time.Since(t0).Nanoseconds()), err
	}
	data := make([]float64, vals) // read-only: SendFloats and Bcast copy it

	ns, err := run(func(c *mp.Comm) error {
		next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
		for r := 0; r < rounds; r++ {
			if err := c.SendFloats(next, 1, data); err != nil {
				return err
			}
			c.Release(c.Recv(prev, 1))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("mp ring: %w", err)
	}
	pc.m["mp.sendrecv_ns_per_msg"] = ns / float64(rounds*ranks)

	ns, err = run(func(c *mp.Comm) error {
		for r := 0; r < rounds; r++ {
			if _, err := c.Allreduce(float64(c.Rank()), mp.OpMax); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("mp allreduce: %w", err)
	}
	pc.m["mp.allreduce_ns_per_call"] = ns / rounds

	ns, err = run(func(c *mp.Comm) error {
		for r := 0; r < rounds; r++ {
			if _, err := c.Bcast(0, data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("mp bcast: %w", err)
	}
	pc.m["mp.bcast_ns_per_call"] = ns / rounds
	return nil
}

// seqBaselineProbe is the plain single-threaded run of the same problem:
// the synchronous fixed point in-process, same decomposition, no grid.
func seqBaselineProbe(in *instance, pc *probeCtx) error {
	opt := in.solves[0]
	d, err := core.NewDecomposition(in.a.Rows, len(in.plat().Hosts), opt.Overlap, opt.Scheme)
	if err != nil {
		return err
	}
	var c vec.Counter
	var res *core.SeqResult
	pc.span("core.seq_baseline", func() {
		res, err = core.SolveSequential(in.a, in.b, d, &splu.SparseLU{}, opt.Tol, 100000, &c)
	})
	if err != nil {
		return err
	}
	if r := relResidual(in, res.X); !(r <= residualLimit) {
		return fmt.Errorf("sequential baseline: residual %.3g exceeds %.0e", r, residualLimit)
	}
	return nil
}

// gridEventsProbes turns the two run spans into host time per commit.
func gridEventsProbes(in *instance, pc *probeCtx) error {
	perRun := pc.m["vgrid.commits"] / 2 // both runs commit the same schedule (checked)
	if perRun == 0 {
		return errors.New("no commits counted")
	}
	pc.m["vgrid.ns_per_commit_single"] = 1e9 * median(pc.sp.perRep("vgrid.run_single")) / perRun
	pc.m["vgrid.ns_per_commit_sharded"] = 1e9 * median(pc.sp.perRep("vgrid.run_sharded")) / perRun
	return nil
}

// gridObservedProbes prices the recorder alone (attached, nothing exported,
// against the same ring with it off) and the critical-path walk.
func gridObservedProbes(in *instance, pc *probeCtx) error {
	timeRun := func(attach func(*vgrid.Engine)) (float64, error) {
		t0 := time.Now()
		_, _, err := ringRun(in, repOpts{}, 0, 1, "", attach)
		return time.Since(t0).Seconds(), err
	}
	var off, on []float64
	rec := &obs.Recorder{}
	for i := 0; i < 3; i++ {
		t, err := timeRun(nil)
		if err != nil {
			return err
		}
		off = append(off, t)
		rec = &obs.Recorder{}
		if t, err = timeRun(func(e *vgrid.Engine) { e.Observe(rec) }); err != nil {
			return err
		}
		on = append(on, t)
	}
	pc.m["obs.record_overhead_s"] = median(on) - median(off)
	pc.span("obs.critpath", func() { obs.CriticalPath(rec) })
	if t := pc.sp.perRep("vgrid.run_observed"); len(t) > 0 && pc.m["vgrid.commits"] > 0 {
		// Two observed runs per repetition share the span name.
		pc.m["vgrid.ns_per_commit_single"] = 1e9 * median(t) / pc.m["vgrid.commits"]
	}
	return nil
}

// table3Probes takes the solver layers' metrics on the table's first system
// (cage11 on cluster2, synchronous) and runs the distributed LU baseline on
// it: the dslu layer no other workload reaches.
func table3Probes(in *instance, pc *probeCtx) error {
	plt := cluster.Cluster2(-1)
	e := vgrid.NewEngine(plt.Platform)
	var res *dslu.Result
	var err error
	pc.span("dslu.solve", func() {
		var pend *dslu.Pending
		if pend, err = dslu.Launch(e, plt.Hosts, in.a, in.b, dslu.Options{}); err != nil {
			return
		}
		if _, err = e.Run(); err != nil {
			return
		}
		pend.Finish()
		res = pend.Result()
	})
	if err != nil {
		return fmt.Errorf("dslu: %w", err)
	}
	if r := relResidual(in, res.X); !(r <= residualLimit) {
		return fmt.Errorf("dslu: residual %.3g exceeds %.0e", r, residualLimit)
	}
	pc.m["dslu.virt_s"] = res.Time
	pc.m["dslu.bytes"] = float64(res.BytesSent)
	for _, st := range e.Stats() {
		pc.m["dslu.msgs"] += float64(st.MsgsSent)
	}

	// The solver probes need repetitions of that one system as reference.
	one, err := solverRep(in, repOpts{workers: 1})
	if err != nil {
		return err
	}
	ref, err := solverRep(in, repOpts{sp: pc.sp})
	if err != nil {
		return err
	}
	sub := &probeCtx{m: pc.m, sp: pc.sp, wall: ref.wall.Seconds(), wall1: one.wall.Seconds(), ref: ref}
	for k, v := range ref.counts {
		pc.m[k] = v
	}
	return solverProbes(in, sub)
}
