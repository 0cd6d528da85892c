// Persistent solver sessions: the paper's factor-once economy (Remark 4)
// lifted to sequences of same-pattern systems. A Newton-multisplitting outer
// loop solves a Jacobian system whose sparsity never changes; a session keeps
// every band's symbolic state — submatrices, dependency-column selection,
// communication plan and factorization — alive across solves and refreshes
// only the numeric values, refactorizing through the frozen pattern
// (splu.Refactorer) instead of factoring from scratch.

package core

import (
	"errors"
	"fmt"

	"repro/internal/iterative"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// SeqSession is a persistent sequential multisplitting solver: build once,
// then Resolve repeatedly against new values of the same-pattern matrix and
// new right-hand sides. The first Resolve factors every band; later Resolves
// refresh the extracted band values in place through frozen position maps and
// refactorize (numeric-only) when the band factorization supports it.
type SeqSession struct {
	// NoRefactor forces a full factorization on every Resolve (the per-step
	// Factor baseline, kept for ablation measurements).
	NoRefactor bool
	// TwoStage, when enabled, replaces each band's exact inner solve with
	// scheduled preconditioned relaxation sweeps (see Options.TwoStage; the
	// nonlinear driver passes its Inner options through here). Set it
	// before the first Resolve. A band whose inner iteration diverges falls
	// back to the exact factorization for the rest of the session.
	TwoStage TwoStage

	a       *sparse.CSR // pattern template; values refreshed by Resolve
	d       *Decomposition
	solver  splu.Direct
	systems []*bandSystem
	subMaps [][]int // per band: positions in a.Val feeding sub.Val
	depMaps [][]int // per band: positions in a.Val feeding depMat.Val
	subs    []*sparse.CSR
	// Persistent iteration state, reused across Resolves so the steady-state
	// iteration allocates nothing.
	xb, newXb [][]float64
	z         [][]float64
	rhs       [][]float64
	x         []float64 // assembled solution; owned by the session
	res       SeqResult // returned by Resolve; owned by the session
	factored  bool

	// FactorFlops accumulates the flops spent factoring and refactorizing
	// across all Resolves (the quantity the refactorization economy shrinks).
	FactorFlops float64
	// InnerSweeps accumulates the two-stage inner sweeps across Resolves
	// (zero in exact mode).
	InnerSweeps int64
	// TwoStageFallbacks counts the bands that abandoned the inner iteration
	// after divergence.
	TwoStageFallbacks int

	// Two-stage state: per-band preconditioners (nil entries run exact),
	// schedules and shared sweep scratch.
	ts     TwoStage
	pcs    []splu.Preconditioner
	scheds []innerSchedule
	tr, tt []float64
}

// NewSeqSession prepares a sequential session for the pattern of a. The
// values of a are the initial numeric state; Resolve(nil, …) uses them.
func NewSeqSession(a *sparse.CSR, d *Decomposition, solver splu.Direct) (*SeqSession, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if a.Rows != a.Cols || a.Rows != d.N {
		return nil, fmt.Errorf("core: session shape mismatch: A is %dx%d, n=%d", a.Rows, a.Cols, d.N)
	}
	if solver == nil {
		solver = &splu.SparseLU{}
	}
	s := &SeqSession{a: a.Clone(), d: d, solver: solver}
	s.systems = make([]*bandSystem, d.L())
	s.subMaps = make([][]int, d.L())
	s.depMaps = make([][]int, d.L())
	s.subs = make([]*sparse.CSR, d.L())
	s.xb = make([][]float64, d.L())
	s.newXb = make([][]float64, d.L())
	s.z = make([][]float64, d.L())
	s.rhs = make([][]float64, d.L())
	for l, band := range d.Bands {
		sub := s.a.Submatrix(band.Lo, band.Hi, band.Lo, band.Hi)
		left := s.a.ColumnsUsed(band.Lo, band.Hi, 0, band.Lo)
		right := s.a.ColumnsUsed(band.Lo, band.Hi, band.Hi, d.N)
		depCols := make([]int, 0, len(left)+len(right))
		depCols = append(depCols, left...)
		depCols = append(depCols, right...)
		bs := &bandSystem{
			band:    band,
			depCols: depCols,
			depMat:  s.a.SelectColumns(band.Lo, band.Hi, depCols),
			bSub:    make([]float64, band.Size()),
		}
		bs.contributors = make([][]contrib, len(depCols))
		for i, j := range depCols {
			for _, k := range d.Contributors(j) {
				bs.contributors[i] = append(bs.contributors[i], contrib{band: k, weight: d.Weight(k, j)})
			}
		}
		s.systems[l] = bs
		s.subs[l] = sub
		s.subMaps[l] = s.a.SubmatrixMap(band.Lo, band.Hi, band.Lo, band.Hi)
		s.depMaps[l] = s.a.SelectColumnsMap(band.Lo, band.Hi, depCols)
		s.xb[l] = make([]float64, band.Size())
		s.newXb[l] = make([]float64, band.Size())
		s.z[l] = make([]float64, len(depCols))
		s.rhs[l] = make([]float64, band.Size())
	}
	s.x = make([]float64, d.N)
	return s, nil
}

// Resolve solves the system with the matrix values newVals (ordered like the
// template's Val array; nil keeps the previous values) and right-hand side b.
// The returned SeqResult.X aliases a session-owned buffer that the next
// Resolve overwrites; callers that keep it across calls must copy it.
func (s *SeqSession) Resolve(newVals, b []float64, tol float64, maxIter int, c *vec.Counter) (*SeqResult, error) {
	d := s.d
	if len(b) != d.N {
		return nil, fmt.Errorf("core: session rhs length %d, want %d", len(b), d.N)
	}
	if newVals != nil {
		if len(newVals) != s.a.NNZ() {
			return nil, fmt.Errorf("core: session got %d values for a pattern with %d", len(newVals), s.a.NNZ())
		}
		copy(s.a.Val, newVals)
	}

	// First Resolve of a two-stage session: validate the configuration and
	// size the per-band schedule and scratch state.
	if !s.factored && s.TwoStage.enabled() {
		s.ts = s.TwoStage.withDefaults()
		if err := s.ts.validate(); err != nil {
			return nil, err
		}
		s.pcs = make([]splu.Preconditioner, d.L())
		s.scheds = make([]innerSchedule, d.L())
		maxSz := 0
		for _, band := range d.Bands {
			if band.Size() > maxSz {
				maxSz = band.Size()
			}
		}
		s.tr = make([]float64, maxSz)
		s.tt = make([]float64, maxSz)
	}
	if s.pcs != nil {
		// Each Resolve is a fresh solve from a zero guess: restart the
		// nonstationary schedules with it.
		for l := range s.scheds {
			s.scheds[l] = newInnerSchedule(s.ts)
		}
	}

	// Numeric phase: refresh the extracted blocks through the frozen maps,
	// then refactor (or factor, first time / baseline / unsupported solver).
	// Two-stage bands factor (and refresh) the band preconditioner instead.
	factStart := c.Flops()
	for l, bs := range s.systems {
		sub := s.subs[l]
		if newVals != nil || !s.factored {
			for k, p := range s.subMaps[l] {
				sub.Val[k] = s.a.Val[p]
			}
			for k, p := range s.depMaps[l] {
				bs.depMat.Val[k] = s.a.Val[p]
			}
		}
		exact := true
		if s.pcs != nil {
			if !s.factored {
				if pc, pcErr := splu.NewBandPreconditioner(sub, s.ts.PrecondBand, c); pcErr == nil {
					s.pcs[l] = pc
					exact = false
				} else {
					// Singular preconditioner band: this band runs exact
					// from the start.
					s.TwoStageFallbacks++
				}
			} else if s.pcs[l] != nil {
				if newVals != nil {
					if err := s.pcs[l].Refresh(sub, c); err != nil {
						return nil, fmt.Errorf("core: band %d preconditioner refresh: %w", l, err)
					}
				}
				exact = false
			}
		}
		if exact {
			rf, canRefactor := bs.fact.(splu.Refactorer)
			switch {
			case s.factored && newVals == nil && bs.fact != nil:
				// Same values: the factors are already current.
			case s.factored && canRefactor && !s.NoRefactor:
				if err := rf.Refactor(sub, c); err != nil {
					return nil, fmt.Errorf("core: band %d refactorization: %w", l, err)
				}
			default:
				fact, err := s.solver.Factor(sub, c)
				if err != nil {
					return nil, fmt.Errorf("core: band %d factorization: %w", l, err)
				}
				bs.fact = fact
			}
		}
		copy(bs.bSub, b[bs.band.Lo:bs.band.Hi])
	}
	s.factored = true
	s.FactorFlops += c.Flops() - factStart

	// Iteration phase: the same fixed-point sweep as SolveSequential, but on
	// persistent buffers — the steady-state loop performs no allocation.
	for l := range s.xb {
		vec.Zero(s.xb[l])
	}
	diff := 0.0
	for iter := 1; iter <= maxIter; iter++ {
		diff = 0
		for l, bs := range s.systems {
			rhs := s.rhs[l]
			copy(rhs, bs.bSub)
			if len(bs.depCols) > 0 {
				z := s.z[l]
				for i := range bs.depCols {
					z[i] = 0
					for _, ct := range bs.contributors[i] {
						kb := s.systems[ct.band].band
						z[i] += ct.weight * s.xb[ct.band][bs.depCols[i]-kb.Lo]
					}
				}
				bs.depMat.MulVecSub(rhs, z, c)
			}
			if s.pcs != nil && s.pcs[l] != nil {
				if err := s.innerSolve(l, iter, rhs, c); err != nil {
					return nil, err
				}
			} else {
				bs.fact.Solve(s.newXb[l], rhs, c)
			}
			if !vec.AllFinite(s.newXb[l]) {
				return nil, fmt.Errorf("%w: band %d at iteration %d", ErrDiverged, l, iter)
			}
			if dl := vec.DiffNormInf(s.newXb[l], s.xb[l], c); dl > diff {
				diff = dl
			}
		}
		for l := range s.xb {
			s.xb[l], s.newXb[l] = s.newXb[l], s.xb[l]
		}
		if diff <= tol {
			s.res = SeqResult{X: s.assembleInto(), Iterations: iter, Diff: diff}
			return &s.res, nil
		}
	}
	s.res = SeqResult{X: s.assembleInto(), Iterations: maxIter, Diff: diff}
	return &s.res, ErrNoConvergence
}

// innerSolve runs band l's scheduled inner sweeps (two-stage mode), falling
// back to a fresh exact factorization for the rest of the session when the
// sweeps diverge.
func (s *SeqSession) innerSolve(l, iter int, rhs []float64, c *vec.Counter) error {
	bs := s.systems[l]
	n := bs.band.Size()
	x := s.newXb[l]
	copy(x, s.xb[l]) // warm start from the previous outer iterate
	k := s.scheds[l].next(iter)
	res, err := iterative.PrecondSweeps(s.subs[l], s.pcs[l], x, rhs, s.ts.Omega, k, s.tr[:n], s.tt[:n], c)
	if err == nil {
		s.InnerSweeps += int64(res.Sweeps)
		s.scheds[l].observe(res)
		return nil
	}
	if !errors.Is(err, iterative.ErrDiverged) {
		return fmt.Errorf("core: band %d inner solve: %w", l, err)
	}
	// Divergent inner stage: abandon two-stage for this band, factor the
	// exact band solver and redo the solve.
	s.pcs[l] = nil
	s.TwoStageFallbacks++
	fact, ferr := s.solver.Factor(s.subs[l], c)
	if ferr != nil {
		return fmt.Errorf("core: band %d two-stage fallback: %w", l, ferr)
	}
	bs.fact = fact
	bs.fact.Solve(x, rhs, c)
	return nil
}

// assembleInto combines the band iterates into the session's solution buffer.
func (s *SeqSession) assembleInto() []float64 {
	vec.Zero(s.x)
	for k, bs := range s.systems {
		for j := bs.band.Lo; j < bs.band.Hi; j++ {
			if w := s.d.Weight(k, j); w > 0 {
				s.x[j] += w * s.xb[k][j-bs.band.Lo]
			}
		}
	}
	return s.x
}

// Fallbacks sums the pivot-degradation fallbacks across the session's bands.
func (s *SeqSession) Fallbacks() int {
	n := 0
	for _, bs := range s.systems {
		if rf, ok := bs.fact.(splu.Refactorer); ok {
			n += rf.Fallbacks()
		}
	}
	return n
}

// Session is the distributed counterpart of SeqSession: a persistent
// multisplitting solver over the simulated grid, and the one path every
// distributed solve takes (core.Launch is the first Resolve of a session
// nobody keeps). Engines cannot be re-run, so every Resolve runs on a fresh
// platform and engine; what persists is the set-up — equilibration scaling,
// decomposition, communication plan — and each rank's solver state:
// submatrices, dependency-column selection, plan view and factorization.
// Later Resolves refresh the numeric values through frozen position maps and
// refactorize as a declared compute segment: the refactor cost is known
// exactly after the symbolic phase (splu.Refactorer.RefactorFlops), so it
// schedules like any other declared segment and overlaps across ranks on the
// worker pool, instead of the measured lower-bound scheduling a deferred
// factorization needs. Every option composes with it; see DESIGN.md §8.3.
type Session struct {
	// NoRefactor forces a full factorization on every Resolve (per-step
	// Factor baseline, for ablation).
	NoRefactor bool
	// FactorFlops accumulates factorization + refactorization flops across
	// all Resolves and ranks: the sum of every finished Resolve's
	// Result.FactorFlops.
	FactorFlops float64

	newPlatform func() (*vgrid.Platform, []*vgrid.Host)
	a           *sparse.CSR // pattern template; left-scaled when diag is set
	o           Options

	// The set-up, fixed by the first Launch (d == nil before it).
	diag  []float64 // Options.Equilibrate: the diagonal a was divided by
	d     *Decomposition
	cp    *plan.Plan
	ranks []*rankState
}

// NewSession prepares a persistent distributed session for the pattern of a;
// the values of a are the initial numeric state. Nothing else happens here:
// the first Resolve validates the options and fixes the decomposition from
// its hosts (their count, and their speeds under Options.Balance).
func NewSession(newPlatform func() (*vgrid.Platform, []*vgrid.Host), a *sparse.CSR, opt Options) (*Session, error) {
	if newPlatform == nil {
		return nil, errors.New("core: session needs a platform factory")
	}
	return &Session{newPlatform: newPlatform, a: a.Clone(), o: opt.withDefaults()}, nil
}

// Resolve solves the system with matrix values newVals (ordered like the
// template's Val array; nil keeps the previous values) and right-hand side b
// on a fresh engine, reusing every rank's persistent state. It is to Launch
// what Solve is to core.Launch.
func (s *Session) Resolve(newVals, b []float64) (*Result, error) {
	pl, hosts := s.newPlatform()
	e := vgrid.NewEngine(pl)
	pend, err := s.Launch(e, hosts, newVals, b)
	if err != nil {
		return nil, err
	}
	return pend.finish(e.Run())
}

// Launch registers one Resolve on an engine the caller configures and runs
// (workers, lanes, fault plan, recorder, trace): call engine.Run, then
// Pending.Finish, then read Pending.Result. The first Launch is the set-up;
// every later one must bring as many hosts.
func (s *Session) Launch(e *vgrid.Engine, hosts []*vgrid.Host, newVals, b []float64) (*Pending, error) {
	if n := s.a.Rows; s.a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("core: shape mismatch: A is %dx%d, len(b)=%d", s.a.Rows, s.a.Cols, len(b))
	}
	if newVals != nil {
		if len(newVals) != s.a.NNZ() {
			return nil, fmt.Errorf("core: session got %d values for a pattern with %d", len(newVals), s.a.NNZ())
		}
		copy(s.a.Val, newVals)
	}
	switch {
	case s.d == nil:
		if err := s.setUp(e.Platform, hosts); err != nil {
			return nil, err
		}
	case len(hosts) != len(s.ranks):
		return nil, fmt.Errorf("core: session built for %d hosts, got %d", len(s.ranks), len(hosts))
	case newVals != nil && s.diag != nil:
		// The new values arrive unscaled, and their diagonal is the new D.
		diag, err := equilibrate(s.a)
		if err != nil {
			return nil, err
		}
		s.diag = diag
	}
	if s.diag != nil {
		b = scaleRHS(b, s.diag)
	}
	pend := &Pending{sess: s}
	pend.res.IterationsPerRank = make([]int, len(hosts))
	pend.res.IdleStepsPerRank = make([]int, len(hosts))
	refresh := newVals != nil
	pend.procs = mp.Launch(e, hosts, "ms", func(c *mp.Comm) error {
		return s.rankBody(c, b, refresh, pend)
	})
	return pend, nil
}

// setUp is everything a solve decides before its first rank body runs, from
// the defaulted options, the template and the first hosts: option and
// topology validation, the equilibration scaling, the balanced or uniform
// decomposition, and the communication plan — computed once from the
// decomposition geometry and the sparsity and shared read-only by all rank
// bodies. A Session keeps it; nothing is kept of a failed one.
func (s *Session) setUp(pl *vgrid.Platform, hosts []*vgrid.Host) error {
	o, a, n := s.o, s.a, s.a.Rows
	if err := o.validate(n, len(hosts)); err != nil {
		return err
	}
	if o.Gateway || o.TopoCollectives {
		if err := pl.ValidateTopology(); err != nil {
			return fmt.Errorf("core: topology-aware mode: %w", err)
		}
	}
	var diag []float64
	var err error
	if o.Equilibrate {
		a = a.Clone()
		if diag, err = equilibrate(a); err != nil {
			return err
		}
	}
	var d *Decomposition
	if o.Balance {
		var starts []int
		if starts, err = balancedStarts(n, hosts, o.BandsPerProc); err != nil {
			return err
		}
		d, err = NewDecompositionFromStarts(n, starts, o.Overlap, o.Scheme)
	} else {
		d, err = NewDecomposition(n, len(hosts)*o.BandsPerProc, o.Overlap, o.Scheme)
	}
	if err != nil {
		return err
	}
	if err := d.Validate(); err != nil {
		return err
	}
	cp, err := buildCommPlan(a, d, len(hosts))
	if err != nil {
		return err
	}
	s.a, s.diag, s.d, s.cp, s.ranks = a, diag, d, cp, make([]*rankState, len(hosts))
	return nil
}

// rankBody is the process body of one rank for one Resolve: a rank the
// session has no state for loads and factors its bands; a kept one is bound
// to the new process, restarted (rankState.startRun) and, when the Resolve
// brought new values, refreshed and refactorized band by band. Either way the
// time that took is the Resolve's factorization time and msRankRun iterates
// from there. Each body writes its own slot of s.ranks and nothing else of
// the session: bodies of different scheduler lanes run concurrently.
func (s *Session) rankBody(c *mp.Comm, b []float64, refresh bool, pend *Pending) error {
	ctx := newRankCtx(c, s.o)
	st := s.ranks[c.Rank()]
	factStart := c.Now()
	if st == nil {
		var err error
		if st, err = newRankState(c, ctx, s.a, b, s.d, s.cp, s.o); err != nil {
			return err
		}
		s.ranks[c.Rank()] = st
	} else {
		st.c, st.ctx, st.bGlob, st.factFlops = c, ctx, b, 0
		st.startRun()
		for i := range st.bands {
			if err := s.refreshBand(st, &st.bands[i], refresh); err != nil {
				return err
			}
		}
	}
	return msRankRun(st, pend, c.Now()-factStart)
}

// refreshBand brings one kept band up to the Resolve: the new right-hand
// side, its memory on the fresh host and, when the values changed, the
// extracted values through the frozen position maps and the factor.
func (s *Session) refreshBand(st *rankState, bs *bandState, refresh bool) error {
	copy(bs.bSub, st.bGlob[bs.band.Lo:bs.band.Hi])
	// The simulated process is new even though the factors persist in the
	// driver: account its working set against the fresh host. In two-stage
	// mode the resident factor is the band preconditioner, not an LU.
	if err := st.ctx.Alloc(bs.workingSet() + bs.factorBytes()); err != nil {
		return err
	}
	if !refresh {
		return nil
	}
	if bs.subMap == nil {
		lo, hi := bs.band.Lo, bs.band.Hi
		bs.subMap = s.a.SubmatrixMap(lo, hi, lo, hi)
		bs.depMap = s.a.SelectColumnsMap(lo, hi, bs.depCols)
	}
	for k, p := range bs.subMap {
		bs.sub.Val[k] = s.a.Val[p]
	}
	for k, p := range bs.depMap {
		bs.depMat.Val[k] = s.a.Val[p]
	}
	return s.refactorBand(st, bs)
}

// refactorBand brings one band's factor up to date with its refreshed
// values, by the cheapest route the factor supports.
func (s *Session) refactorBand(st *rankState, bs *bandState) error {
	c, ctx := st.c, st.ctx
	start := c.Now()
	flops0 := ctx.Counter.Flops()
	cat, name := obs.CatRefact, "refactor"
	rf, canRefactor := bs.fact.(splu.Refactorer)
	switch {
	case bs.twoStage():
		// Refresh the preconditioner's band values through its frozen
		// position map and refactor. The banded elimination cost is value
		// dependent (pivoting), so this is a deferred segment like the
		// initial build.
		name = "precond-refresh"
		var err error
		c.ComputeDeferred(func() float64 {
			err = bs.ts.pc.Refresh(bs.sub, ctx.Cnt())
			return ctx.Counter.Flops() - ctx.Charged
		})
		if err != nil {
			return fmt.Errorf("rank %d: preconditioner refresh: %w", st.rank, err)
		}
	case canRefactor && !s.NoRefactor:
		// The refactor cost is frozen by the symbolic phase, so this is a
		// declared segment; Charge reconciles the rare pivot-degradation
		// fallback, which costs a full factorization instead. That fallback
		// may change the fill, so the per-iteration declared cost is
		// recomputed.
		var err error
		c.ComputeSeg(rf.RefactorFlops(), func() {
			err = rf.Refactor(bs.sub, ctx.Cnt())
		})
		c.Charge()
		if err != nil {
			return fmt.Errorf("rank %d: refactorization: %w", st.rank, err)
		}
		bs.setStepFlops()
	default:
		cat, name = obs.CatFact, "factor"
		if err := st.factorBand(bs); err != nil {
			return err
		}
	}
	flops := ctx.Counter.Flops() - flops0
	st.factFlops += flops
	if sc := ctx.Observe(); sc != nil {
		sc.Span(obs.Span{Cat: cat, Name: name,
			Start: start, End: c.Now(), Flops: flops})
	}
	return nil
}
