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

	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sparse"
	"repro/internal/vgrid"
)

// Session is a persistent multisplitting solver over the simulated grid, and
// the one path every distributed solve takes (core.Launch is the first Resolve of a session
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
// decomposition geometry, the sparsity and the hosts' clusters, shared
// read-only by all rank bodies. A Session keeps it, and nothing of a failed one.
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
	cluster := make([]int, len(hosts))
	for r, h := range hosts {
		cluster[r] = h.ClusterIndex()
	}
	cp, err := buildCommPlan(a, d, cluster)
	if err != nil {
		return err
	}
	s.a, s.diag, s.d, s.cp, s.ranks = a, diag, d, cp, make([]*rankState, len(hosts))
	return nil
}

// buildCommPlan builds the shared communication plan for the decomposition
// mapped cyclically onto the ranks (rank r owns bands r, r+P, r+2P…; with
// one band per rank the map is the identity; rankState.bandOf inverts it).
// cluster gives each rank's host cluster (Host.ClusterIndex), which makes
// the plan relayed over a clustered platform. The segment and route
// construction lives in exactly one place (internal/plan).
func buildCommPlan(a *sparse.CSR, d *Decomposition, cluster []int) (*plan.Plan, error) {
	nranks := len(cluster)
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
		Cluster:          cluster,
	})
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
	switch {
	case bs.twoStage():
		// Refresh the preconditioner's band values through its frozen
		// position map and refactor. The banded elimination cost is value
		// dependent (pivoting), so this is a deferred segment like the
		// initial build.
		name = "precond-refresh"
		// Floor 0: nothing is provable, a refreshed band whose multipliers
		// all vanish counts no flop (splu.NewBandPreconditioner).
		var err error
		c.ComputeDeferred(0, func() float64 {
			err = bs.ts.pc.Refresh(bs.sub, ctx.Cnt())
			return ctx.Counter.Flops() - ctx.Charged
		})
		if err != nil {
			return fmt.Errorf("rank %d: preconditioner refresh: %w", st.rank, err)
		}
	case !s.NoRefactor:
		// The refactor cost is frozen by the symbolic phase, so this is a
		// declared segment; Charge reconciles the rare pivot-degradation
		// fallback, which costs a full factorization instead. That fallback
		// may change the fill, so the per-iteration declared cost is
		// recomputed.
		var err error
		c.ComputeSeg(bs.fact.RefactorFlops(), func() {
			err = bs.fact.Refactor(bs.sub, ctx.Cnt())
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
