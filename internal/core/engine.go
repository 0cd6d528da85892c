package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/iterative"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/simctx"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
)

// msgHdr is the two-slot message header preceding the exchanged values: the
// sender's own iteration version and, for the specific receiver, the highest
// version of the *receiver's* data the sender has incorporated so far (the
// causal echo). The asynchronous detection uses the echo to require a full
// round trip of stabilized data before declaring local convergence, which is
// what keeps detection sound when messages pipeline over high-latency links.
const msgHdr = 2

// bandState is one owned band's solver state: the extracted and factored
// subsystem and its iteration vectors.
type bandState struct {
	band    Band
	sub     *sparse.CSR
	depMat  *sparse.CSR
	depCols []int
	fact    splu.Factorization
	bSub    []float64
	xSub    []float64
	xPrev   []float64
	rhs     []float64
	z       []float64 // weighted dependency values (zero start)

	// stepFlops is the analytic cost of one exact computation step (SpMV
	// against the dependency columns + triangular solves + difference norm);
	// it is exact, so declaring it up front leaves nothing for Charge to
	// reconcile.
	stepFlops float64
	// ts is the two-stage inner-iteration state (nil in exact mode; see
	// twostage.go). While active the band steps through tsStep and its
	// declared cost varies with the schedule's sweep count.
	ts *twoStageState

	// diff and err are the outcome of the band's last step, written by the
	// segment body: the successive-iterate difference, and ErrDiverged for a
	// non-finite iterate or the inner stage's error.
	diff float64
	err  error
	// zMoved is nonzero when an input of the exact step changed since the
	// band's last one: the writers of z OR in the bits they flip, step clears
	// it, startRun sets it. While it is zero a step can only reproduce xSub,
	// and iterate charges it unsolved.
	zMoved uint64

	// subMap and depMap are the positions in the session template's Val array
	// feeding sub.Val and depMat.Val. They are derived by the first Resolve
	// that brings new values (Session.refreshBand), so a one-shot Launch never
	// builds them and a resplit band starts without them.
	subMap, depMap []int
}

// owned returns the band's owned segment of the iterate (the band minus its
// overlap).
func (bs *bandState) owned() []float64 {
	return bs.xSub[bs.band.Start-bs.band.Lo : bs.band.End-bs.band.Lo]
}

// workingSet is the memory the band's extracted matrices and right-hand side
// occupy; factorBytes is the factor it currently solves with.
func (bs *bandState) workingSet() int64 {
	return csrBytes(bs.sub) + csrBytes(bs.depMat) + 8*int64(bs.band.Size())
}

func (bs *bandState) factorBytes() int64 {
	if bs.twoStage() {
		return bs.ts.pc.Bytes()
	}
	return bs.fact.Bytes()
}

// rankState is one rank's full solver state for the band engine: the bands
// the shared communication plan assigns it — {r, r+P, r+2P, …}, the
// several-non-adjacent-bands assignment of the paper's Remark 2; one band
// per processor is simply len(bands) == 1 — its view of that plan and the
// exchange bookkeeping. The engine loop (msRankRun) drives it through an
// exchangePolicy.
type rankState struct {
	c     *mp.Comm
	ctx   *simctx.Ctx
	o     Options
	rank  int
	d     *Decomposition
	bands []bandState

	// aGlob and bGlob are the globally-readable system (paper
	// Initialization); the adaptive resplit transition re-extracts the new
	// band from them.
	aGlob *sparse.CSR
	bGlob []float64

	// stepFn is the computation-step segment body (step), built once so the
	// per-iteration ComputeSeg call allocates no closure.
	stepFn func()
	// factFlops accumulates the factorization arithmetic this rank spent on
	// the current solve (exact LU or band preconditioner, a session's
	// refactorization, plus any two-stage fallback factor) for
	// Result.FactorFlops.
	factFlops float64

	// cp is the shared communication plan; rp is this rank's view (one
	// packed message per peer per iteration whatever bands it connects, see
	// internal/plan).
	cp *plan.Plan
	rp *plan.RankPlan
	// echoGroup maps a send group to the rp.Recv index of the same peer (−1
	// when this rank does not depend on that peer).
	echoGroup       []int
	verIncorporated []float64 // latest version seen per recv group
	echoFrom        []float64 // highest own version echoed back, per group
	// lastRecv[g] holds the last packed values received from recv group g so
	// z can be updated incrementally under the weighting scheme; localLast
	// does the same for the segments between two of this rank's own bands
	// (rp.Local), which never touch the network.
	lastRecv  [][]float64
	localLast [][]float64

	// freshSeen tracks, per recv group, whether new data arrived since the
	// last complete exchange round; async convergence evidence only counts
	// on complete rounds (see asyncPolicy).
	freshSeen []bool
	sendBuf   []float64

	// relay routes every send group and delivers every receive group, direct
	// or over the plan's relay route (Options.Gateway); recvCritical is the
	// blocking receive it and the final gather use.
	relay        *mp.Relay
	recvCritical mp.RecvFunc

	progress
}

// progress is what one solve counts on a rank; startRun zeroes it whole.
type progress struct {
	iter        int
	idleSteps   int     // exact band steps whose inputs had not moved (Result.IdleSteps)
	diff        float64 // largest successive-iterate difference of the last step
	stableRuns  int
	stableStart int // first iteration of the current stable streak
}

// bandOf returns the state of band k of the decomposition, which this rank
// must own (the plan maps bands to ranks cyclically, see buildCommPlan).
func (st *rankState) bandOf(k int) *bandState { return &st.bands[k/st.cp.NRanks] }

// newRankState loads and factors the rank's bands (paper step 1 + Remark 4)
// and wires the rank into the shared communication plan (DependsOnMe of
// Algorithm 1, built once by the set-up).
func newRankState(c *mp.Comm, ctx *simctx.Ctx, a *sparse.CSR, bGlob []float64, d *Decomposition, cp *plan.Plan, o Options) (*rankState, error) {
	rank := c.Rank()
	st := &rankState{c: c, ctx: ctx, o: o, rank: rank, d: d, cp: cp,
		aGlob: a, bGlob: bGlob}
	st.rp = &cp.Ranks[rank]

	// --- Initialization: load and factor the bands.
	st.bands = make([]bandState, d.L()/cp.NRanks)
	for i := range st.bands {
		if err := st.loadBand(&st.bands[i], rank+i*cp.NRanks); err != nil {
			return nil, err
		}
	}
	st.echoGroup = make([]int, len(st.rp.Send))
	for si, s := range st.rp.Send {
		st.echoGroup[si] = slices.IndexFunc(st.rp.Recv, func(g plan.PeerIO) bool { return g.Peer == s.Peer })
	}
	st.stepFn = st.step
	st.startRun()
	return st, nil
}

// startRun puts the rank at the start of a solve from a zero guess. It is
// the second half of newRankState and the whole reset of a rank a Session
// kept, so a kept rank starts a Resolve in exactly the state a fresh one
// would: everything a solve writes — iterates, dependency values, exchange
// baselines, version/echo bookkeeping, relay staging, the two-stage
// schedules and tallies, the progress counters — is rebuilt here and nowhere
// else. What survives is what the factorization economy is about: the
// extracted matrices, their factors and the plan view.
//
// Iteration state over the shared plan: per-peer receive groups with
// incremental-update buffers, one reused send buffer sized by the largest
// packed message (or the final gather's owned segments, whichever is
// larger). All the float state sub-slices a single arena (three-index
// slicing keeps the append-grown sendBuf in its lane).
func (st *rankState) startRun() {
	cp, rank := st.cp, st.rank
	st.progress = progress{}
	ng := len(st.rp.Recv)
	sendCap := cp.MaxSendVals(rank) + msgHdr
	owned := 0
	total := 2 * ng
	for i := range st.bands {
		bs := &st.bands[i]
		owned += bs.band.End - bs.band.Start
		total += 3*bs.band.Size() + len(bs.depCols)
		if bs.ts != nil {
			total += 2 * bs.band.Size() // inner-sweep residual + correction vectors
		}
	}
	sendCap = max(sendCap, owned)
	for _, g := range st.rp.Recv {
		total += g.Vals
	}
	for _, s := range st.rp.Local {
		total += len(s.Pos)
	}
	arena := make([]float64, total+sendCap)
	take := func(n int) []float64 {
		s := arena[:n:n]
		arena = arena[n:]
		return s
	}
	for i := range st.bands {
		bs := &st.bands[i]
		sz := bs.band.Size()
		bs.xSub = take(sz)
		bs.xPrev = take(sz)
		bs.rhs = take(sz)
		if ts := bs.ts; ts != nil {
			// The preconditioner and a fallback to the exact solve outlive the
			// solve; the schedule, the scratch and the tallies do not.
			*ts = twoStageState{opt: ts.opt, pc: ts.pc, fellBack: ts.fellBack,
				sched: newInnerCount(ts.opt), r: take(sz), t: take(sz)}
		}
		bs.z = take(len(bs.depCols))
		bs.zMoved, bs.diff, bs.err = 1, 0, nil
	}
	st.sendBuf = take(sendCap)[:0]
	st.verIncorporated = take(ng)
	st.echoFrom = take(ng)
	st.lastRecv = make([][]float64, ng)
	for gi, g := range st.rp.Recv {
		st.lastRecv[gi] = take(g.Vals)
	}
	st.localLast = make([][]float64, len(st.rp.Local))
	for i, s := range st.rp.Local {
		st.localLast[i] = take(len(s.Pos))
	}
	st.freshSeen = make([]bool, ng)
	var route *plan.Relay
	if st.o.Gateway {
		route = st.rp.Relay
	}
	st.recvCritical = recvCritical(st.c, st.o.FaultTolerant)
	// A synchronous round carries the successive-iterate difference, known
	// before the exchange.
	st.relay = mp.NewRelay(st.c, st.rp, route, mp.RelayTags{tagX, tagUp, tagWAN, tagDown},
		st.recvCritical, !st.o.Async)
}

// loadBand extracts band k of the decomposition into bs and factors it,
// accounting its memory and recording the factorization span.
func (st *rankState) loadBand(bs *bandState, k int) error {
	c, ctx, a := st.c, st.ctx, st.aGlob
	band := st.d.Bands[k]
	bs.band = band
	bs.sub = a.Submatrix(band.Lo, band.Hi, band.Lo, band.Hi)
	bs.depCols = st.cp.DepCols[k]
	bs.depMat = a.SelectColumns(band.Lo, band.Hi, bs.depCols)
	bs.bSub = vec.Clone(st.bGlob[band.Lo:band.Hi])
	if err := ctx.Alloc(bs.workingSet()); err != nil {
		return err
	}
	start := c.Now()
	flops0 := ctx.Counter.Flops()
	name := "factor"
	// Two-stage mode factors the narrow band preconditioner instead of the
	// full band LU — O(n·width) memory instead of the LU fill (twostage.go).
	// A singular preconditioner band falls through to the exact path.
	if st.o.TwoStage.enabled() {
		built, err := st.buildTwoStage(bs)
		if err != nil {
			return err
		}
		if built {
			name = "precond-factor"
		}
	}
	if bs.ts == nil {
		if err := st.factorBand(bs); err != nil {
			return err
		}
	}
	flops := ctx.Counter.Flops() - flops0
	st.factFlops += flops
	if sc := ctx.Observe(); sc != nil {
		sc.Span(obs.Span{Cat: obs.CatFact, Name: name,
			Start: start, End: c.Now(), Flops: flops})
	}
	if bs.fact != nil {
		return ctx.Alloc(bs.fact.Bytes())
	}
	return nil
}

// factorBand factors the band's submatrix with this rank's direct solver and
// derives the exact step cost from the factor. The factorization's cost
// depends on the fill it discovers, so it is a deferred segment: it runs on
// the worker pool and its counted flops are charged on completion. Its floor
// is what the solver always counts (splu.FactorFloor): with a positive floor
// the ranks that reach their factorization at the same instant all dispatch
// it before the first is collected, so the factorizations overlap. Reading
// fact/err right after the call is safe: ComputeDeferred's commit guarantee
// (see vgrid) is that fn has completed and its writes are visible before the
// call returns, for any worker count.
func (st *rankState) factorBand(bs *bandState) error {
	ctx := st.ctx
	solver := st.o.Solver
	if st.o.SolverPerRank != nil && st.o.SolverPerRank[st.rank] != nil {
		solver = st.o.SolverPerRank[st.rank]
	}
	var fact splu.Factorization
	var err error
	st.c.ComputeDeferred(splu.FactorFloor(solver, bs.sub), func() float64 {
		fact, err = solver.Factor(bs.sub, ctx.Cnt())
		return ctx.Counter.Flops() - ctx.Charged
	})
	if err != nil {
		return fmt.Errorf("rank %d: %w", st.rank, err)
	}
	bs.fact = fact
	bs.setStepFlops()
	return nil
}

// setStepFlops derives the exact step cost from the current factor: SpMV
// counts 2·nnz, the triangular solves a factor-determined constant, the
// difference norm 2·n — all exact integers, so the declared cost matches the
// counted flops bit for bit. (A two-stage band's cost varies with the
// schedule's sweep count instead, see stageCost.)
func (bs *bandState) setStepFlops() {
	bs.stepFlops = 2*float64(bs.depMat.NNZ()) + bs.fact.SolveFlops() + 2*float64(bs.band.Size())
}

// newRankCtx attaches a fresh solver context to the communicator and applies
// the communication options: collective shape and, in the degraded mode, the
// retransmission policy (on a healthy configuration that changes nothing).
func newRankCtx(c *mp.Comm, o Options) *simctx.Ctx {
	c.Topo = o.TopoCollectives
	ctx := simctx.New()
	ctx.Obs = obs.NewScope(c.Proc().Obs(), c.Proc().Name)
	if o.TrackMemory {
		ctx.Mem = c.Proc()
	}
	c.AttachCtx(ctx)
	if o.FaultTolerant {
		c.Retry = mp.RetryPolicy{Attempts: sendRetries, Backoff: sendBackoff}
	}
	return ctx
}

// ErrPeerDead is wrapped by the fault-tolerant mode's verdict on a peer that
// stayed silent through every receive attempt; test for it with errors.Is.
var ErrPeerDead = errors.New("appears dead")

// recvCritical returns the receive of a message the protocol cannot
// progress without (a synchronous boundary exchange, a relay round, the final
// gather). In fault-tolerant mode it waits in deadRankTimeout windows instead
// of blocking forever and, once the budget is exhausted, diagnoses the silent
// peer: crashed host, failed process, or plain message loss. It closes over
// the communicator only, so a rank state copied by a resplit keeps it.
func recvCritical(c *mp.Comm, faultTolerant bool) mp.RecvFunc {
	return func(from, tag int, what string) (*mp.Packet, error) {
		if !faultTolerant {
			return c.Recv(from, tag), nil
		}
		for range sendRetries {
			if pk := c.RecvTimeout(from, tag, deadRankTimeout); pk != nil {
				return pk, nil
			}
		}
		switch {
		case c.PeerFailed(from):
			return nil, fmt.Errorf("rank %d: rank %d %w waiting for %s: process failed: %w",
				c.Rank(), from, ErrPeerDead, what, c.PeerErr(from))
		case c.PeerDown(from):
			return nil, fmt.Errorf("rank %d: rank %d %w waiting for %s: its host is down",
				c.Rank(), from, ErrPeerDead, what)
		default:
			return nil, fmt.Errorf("rank %d: rank %d %w waiting for %s: silent for %.3gs",
				c.Rank(), from, ErrPeerDead, what, sendRetries*deadRankTimeout)
		}
	}
}

// applyGroup incorporates one peer's packed update, whichever route delivered
// it: incremental z update under the weighting
// scheme, segment by segment in the group's canonical order, plus
// version/echo bookkeeping. vals carries exactly the group's Vals values.
func (st *rankState) applyGroup(gi int, ver, echo float64, vals []float64) {
	st.verIncorporated[gi] = ver
	if echo < 0 {
		// The sender does not depend on us: no echo is possible, the
		// round-trip criterion is vacuously satisfied for this channel.
		st.echoFrom[gi] = math.Inf(1)
	} else if echo > st.echoFrom[gi] {
		st.echoFrom[gi] = echo
	}
	g := &st.rp.Recv[gi]
	last := st.lastRecv[gi]
	off := 0
	for _, s := range g.Segs {
		bs := st.bandOf(s.To)
		z, moved := bs.z, uint64(0)
		for i, pos := range s.Pos {
			v := vals[off+i]
			zn := z[pos] + float64(s.Weights[i]*(v-last[off+i]))
			moved |= math.Float64bits(zn) ^ math.Float64bits(z[pos])
			z[pos] = zn
			last[off+i] = v
		}
		bs.zMoved |= moved
		off += len(s.Pos)
	}
	st.ctx.Counter.Add(float64(3 * float64(g.Vals)))
}

// reflFor returns the echo header for a message of send group si: the
// highest of the peer's versions this rank has incorporated, or −1 when this
// rank does not depend on the peer at all.
func (st *rankState) reflFor(si int) float64 {
	if gi := st.echoGroup[si]; gi >= 0 {
		return st.verIncorporated[gi]
	}
	return -1
}

// packVals appends the group's boundary values (the producing band's xSub at
// each segment's producer-local indices, in the group's canonical segment
// order) to buf.
func (st *rankState) packVals(g *plan.PeerIO, buf []float64) []float64 {
	for _, s := range g.Segs {
		x := st.bandOf(s.From).xSub
		for _, li := range s.Loc {
			buf = append(buf, x[li])
		}
	}
	return buf
}

// idleStepHook, installed by tests only, is asked at every step iterate is
// about to charge without computing; returning true computes it after all.
var idleStepHook func(st *rankState) bool

// iterate runs the computation step (step 2) for every owned band: BLoc =
// BSub − Dep·z, solve the subsystem (exactly, or by the scheduled inner
// sweeps of the two-stage mode), measure the successive-iterate difference.
// Every band reads only its own z, which changes between steps alone, so the
// bands of a rank advance Jacobi-fashion exactly like bands on different
// ranks. The whole step is one pure compute segment with an analytically
// known cost, so it is declared up front and its arithmetic overlaps other
// ranks' segments on the worker pool. A band whose inner sweeps diverged
// falls back to the exact solve and redoes its step.
func (st *rankState) iterate() error {
	cost, idle := 0.0, 0
	for i := range st.bands {
		bs := &st.bands[i]
		if bs.twoStage() {
			bs.ts.sweeps = bs.ts.sched.next(st.iter)
			cost += bs.stageCost(bs.ts.sweeps)
		} else {
			cost += bs.stepFlops
			if bs.zMoved == 0 {
				idle++
			}
		}
	}
	st.idleSteps += idle
	start := st.c.Now()
	if idle == len(st.bands) && (idleStepHook == nil || !idleStepHook(st)) {
		// No band's input moved (an asynchronous rank waiting on the WAN):
		// solving again would reproduce xSub bit for bit. The grid still pays
		// the step — clock and counter are charged exactly as ComputeSeg and
		// step would — and xSub == xPrev gives the difference 0.
		st.ctx.Counter.Add(cost)
		st.ctx.Charged += cost
		st.c.Compute(cost)
		st.diff = 0
		return nil
	}
	st.c.ComputeSeg(cost, st.stepFn)
	sweeps, totalSweeps := 0, int64(0)
	for i := range st.bands {
		bs := &st.bands[i]
		switch {
		case bs.err != nil && bs.twoStage() && errors.Is(bs.err, iterative.ErrDiverged):
			if err := st.twoStageFallback(bs); err != nil {
				return err
			}
		case bs.err != nil:
			return fmt.Errorf("rank %d: %w at iteration %d", st.rank, bs.err, st.iter)
		case bs.twoStage():
			ts := bs.ts
			ts.totalSweeps += int64(ts.sweeps)
			ts.innerFlops += iterative.PrecondSweepsFlops(bs.sub, ts.pc, ts.sweeps)
			ts.sched.observe(ts.res)
			sweeps += ts.sweeps
			totalSweeps += ts.totalSweeps
		}
	}
	if sc := st.ctx.Observe(); sc != nil && sweeps > 0 {
		sc.Span(obs.Span{Cat: obs.CatInner, Name: "inner", Iter: st.iter,
			Start: start, End: st.c.Now(), Flops: cost})
		sc.Count("inner_sweeps", float64(sweeps))
		// Cumulative sweep series: the windowed telemetry layer turns this
		// into per-window inner-sweep progress alongside the residual series.
		sc.Sample("inner_sweeps", st.c.Now(), float64(totalSweeps))
	}
	st.diff = 0
	for i := range st.bands {
		st.diff = math.Max(st.diff, st.bands[i].diff)
	}
	return nil
}

// step is the segment body run by iterate on the worker pool (referenced via
// stepFn; it must touch only this rank's state, never the simulator).
func (st *rankState) step() {
	cnt := st.ctx.Counter
	for i := range st.bands {
		if bs := &st.bands[i]; bs.twoStage() {
			bs.tsStep(cnt)
		} else {
			bs.step(cnt)
		}
	}
}

// step is one band's exact computation step; a non-finite iterate is
// reported through err.
func (bs *bandState) step(cnt *vec.Counter) {
	copy(bs.rhs, bs.bSub)
	if len(bs.depCols) > 0 {
		bs.depMat.MulVecSub(bs.rhs, bs.z, cnt)
	}
	bs.fact.Solve(bs.xSub, bs.rhs, cnt)
	if !vec.AllFinite(bs.xSub) {
		bs.err = ErrDiverged
		return
	}
	bs.err = nil
	bs.diff = vec.DiffNormInf(bs.xSub, bs.xPrev, cnt)
	copy(bs.xPrev, bs.xSub)
	bs.zMoved = 0
}

// ship sends this rank's boundary components to their dependents (step 3):
// one packed [version, echo, values] record per peer group, routed by the
// relay, and an in-place incremental update for the segments between two of
// this rank's own bands.
func (st *rankState) ship() error {
	for i, s := range st.rp.Local {
		to := st.bandOf(s.To)
		x, z, last, moved := st.bandOf(s.From).xSub, to.z, st.localLast[i], uint64(0)
		for k, pos := range s.Pos {
			v := x[s.Loc[k]]
			zn := z[pos] + float64(s.Weights[k]*(v-last[k]))
			moved |= math.Float64bits(zn) ^ math.Float64bits(z[pos])
			z[pos] = zn
			last[k] = v
		}
		to.zMoved |= moved
		st.ctx.Counter.Add(float64(3 * float64(len(s.Pos))))
	}
	for gi := range st.rp.Send {
		st.sendBuf = append(st.sendBuf[:0], float64(st.iter), st.reflFor(gi))
		st.sendBuf = st.packVals(&st.rp.Send[gi], st.sendBuf)
		if err := st.relay.Send(gi, st.sendBuf); err != nil {
			return err
		}
	}
	return st.relay.Flush(st.diff)
}

// msRankRun is the body of Algorithm 1 from the first iteration on: one
// engine loop — iterate, ship, exchange — parameterized by the exchange policy
// (synchronous barrier or asynchronous freshest-drain), which stops on the
// paper's successive-iterate difference, then the final gather.
// Session.rankBody hands it a rank at the start of a solve.
func msRankRun(st *rankState, pend *Pending, factTime float64) error {
	c, o := st.c, st.o

	policy := newExchangePolicy(o, c)
	ad := newAdaptRank(st)

	converged := false
	aborted := false
	for st.iter < o.MaxIter {
		st.iter++
		iterStart := c.Now()
		if err := st.iterate(); err != nil {
			return err
		}
		if err := st.ship(); err != nil {
			return err
		}
		out, err := policy.exchange(st)
		if err != nil {
			return err
		}
		if sc := st.ctx.Observe(); sc != nil {
			sc.Span(obs.Span{Cat: obs.CatIter, Name: "iter", Iter: st.iter,
				Start: iterStart, End: c.Now()})
		}
		if out == outConverged {
			converged = true
			break
		}
		if out == outAborted {
			aborted = true
			break
		}
		// The adaptive epoch runs between iterations, after the convergence
		// decision, so a resplit never races the exchange: every rank reaches
		// it in lockstep and the next iteration runs whole on the new bands.
		if ad != nil && ad.due(st.iter) {
			if err := ad.epoch(st, pend); err != nil {
				return err
			}
		}
	}
	if !converged && !aborted && o.Async {
		// Hit the cap: tell everyone to stop so the run terminates.
		for m := 0; m < c.Size(); m++ {
			if m != st.rank {
				if err := c.Signal(m, tagAbort); err != nil {
					return err
				}
			}
		}
	}

	// Assemble the solution at rank 0: every other rank sends the owned
	// segments of its bands, in band order, packed into one message. Read the
	// decomposition through st: a resplit replaced it mid-run, and all ranks
	// hold the same final bands.
	d := st.d
	if st.rank != 0 {
		buf := st.sendBuf[:0]
		for i := range st.bands {
			buf = append(buf, st.bands[i].owned()...)
		}
		if err := c.SendFloats(0, tagGather, buf); err != nil {
			return err
		}
	} else {
		x := make([]float64, d.N)
		for i := range st.bands {
			bs := &st.bands[i]
			copy(x[bs.band.Start:bs.band.End], bs.owned())
		}
		for m := 1; m < c.Size(); m++ {
			pk, err := st.recvCritical(m, tagGather, "solution segment")
			if err != nil {
				return err
			}
			off := 0
			for k := m; k < d.L(); k += c.Size() {
				off += copy(x[d.Bands[k].Start:d.Bands[k].End], pk.Floats[off:])
			}
			c.Release(pk)
		}
		pend.res.X = x
	}

	resplitFlops := 0.0
	if ad != nil {
		resplitFlops = ad.flops
	}
	pend.finishRank(st, factTime, resplitFlops, converged)
	return nil
}
