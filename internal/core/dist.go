package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// Solver and relay message tags (detect reserves tags from 1<<18 upward).
// Spans record tags, so the values do not move. tagAdapt and tagUp share 4
// and cannot collide: only rank 0 sends tagAdapt, and rank 0 always
// aggregates its own cluster (an aggregator is its cluster's lowest rank), so
// it never sends an up batch — and a tagAdapt receive names rank 0 as its
// source.
const (
	tagX      = 1 // boundary solution exchange (a group's direct message)
	tagAbort  = 2 // a rank hit the iteration cap
	tagGather = 3 // final solution assembly
	tagAdapt  = 4 // resplit iterate redistribution (rank 0 → new bands)
	tagUp     = 4 // relay: member → its aggregator
	tagWAN    = 5 // relay: aggregator → remote aggregator
	tagDown   = 6 // relay: aggregator → member
)

// The convergence-detection and fault-tolerance constants.
const (
	// smoothRuns is the number of consecutive locally-converged iterations an
	// asynchronous rank needs before it reports local convergence; it guards
	// the detection against transient stalls.
	smoothRuns = 3
	// sendRetries is the total number of transmission attempts per message in
	// fault-tolerant mode.
	sendRetries = 4
	// sendBackoff is the virtual backoff before the first retransmission,
	// doubling after each.
	sendBackoff = 1e-3
	// deadRankTimeout is the virtual time a fault-tolerant receive waits
	// before counting one failed attempt against a silent peer (after
	// sendRetries attempts the peer is declared dead), and the cadence of the
	// asynchronous detector's refresh.
	deadRankTimeout = 1.0
)

// Options configures a distributed multisplitting solve.
type Options struct {
	// Overlap extends every band by this many rows on each side (Figure 3's
	// swept parameter). Zero gives the disjoint block-Jacobi-like variant of
	// Section 2.
	Overlap int
	// Scheme selects the E_lk weighting family (SchemeNames).
	Scheme WeightScheme
	// Solver is the sequential direct method used per band
	// (default: sparse LU in natural order, the SuperLU stand-in).
	Solver splu.Direct
	// Tol is the successive-iterate infinity-norm accuracy (default 1e-8,
	// the paper's setting).
	Tol float64
	// MaxIter caps the iteration count (default 100000).
	MaxIter int
	// Async selects the asynchronous driver (paper's Corba variant): ranks
	// iterate freely, adopt the freshest available neighbor data and detect
	// convergence with a polling protocol.
	Async bool
	// TrackMemory accounts the band matrix and factors against the host
	// memory capacity, so undersized platforms fail with "not enough
	// memory" exactly as in the paper's Tables 2 and 3.
	TrackMemory bool
	// Balance sizes each band proportionally to its host's speed instead
	// of uniformly, addressing the heterogeneity the paper discusses for
	// cluster2/cluster3.
	Balance bool
	// SolverPerRank assigns a different sequential direct method to each
	// rank (the paper's conclusion proposes coupling different direct
	// algorithms on different clusters). When set it must have one entry
	// per host; nil entries fall back to Solver.
	SolverPerRank []splu.Direct
	// Equilibrate left-scales the system by the inverse diagonal before
	// splitting (a simple preconditioning hook, paper Remark 5). The
	// returned solution solves the original system.
	Equilibrate bool
	// BandsPerProc assigns this many non-adjacent bands to every processor
	// (the paper's Remark 2), cyclically: rank r owns bands r, r+P, r+2P….
	// All segments between two ranks coalesce into one packed message per
	// iteration whatever bands they connect, and segments between two bands of
	// one rank never touch the network. Default 1.
	BandsPerProc int
	// FaultTolerant opts into the degraded operating mode for unreliable
	// grids (vgrid.FaultPlan): every send is retransmitted with exponential
	// backoff in virtual time (sendRetries attempts, the first after
	// sendBackoff), the synchronous driver replaces its blocking boundary
	// receives with timeouts and fails fast with a diagnostic when a peer is
	// dead (deadRankTimeout), and the asynchronous driver periodically
	// refreshes its convergence detector so detection survives lost protocol
	// messages. Surviving bands keep iterating while a crashed host is down
	// and pick up its data again after the restart (the async policy's
	// freshest-iterate reuse needs no extra machinery for that).
	FaultTolerant bool
	// TopoCollectives routes mp's collectives through per-cluster leaders:
	// members reduce to their leader over the LAN and only leaders cross the
	// WAN, so a collective costs O(#clusters) inter-cluster messages instead
	// of O(P). It reaches the synchronous convergence Allreduce when no relay
	// route carries the criterion (under Gateway the relay round does) and
	// Adapt's Gather/Bcast; the final gather is a packed message to rank 0,
	// and asynchronous runs use no collective. Requires cluster declarations
	// on the platform (vgrid.Platform.AddCluster); without them the
	// collectives silently stay flat.
	TopoCollectives bool
	// Gateway relays the inter-cluster boundary exchange through one
	// aggregator rank per cluster, the route the communication plan holds
	// for every inter-cluster group (plan.Relay), forwarded by mp.Relay: every
	// rank ships all of its inter-cluster groups to its aggregator in one LAN
	// message, aggregators exchange one WAN message per cluster pair per
	// iteration and fan the updates out locally. A relayed record carries the
	// direct message's own [version, echo, values] payload, so every exchange
	// policy keeps its exact semantics (synchronous iterates are
	// byte-identical to the direct exchange). Requires cluster declarations;
	// on a flat platform the option is a no-op.
	Gateway bool
	// Adapt turns the decomposition into a live object: a deterministic
	// feedback controller (internal/adapt) observes every rank's committed
	// busy/wait window each AdaptInterval iterations and — in synchronous
	// mode — resizes the bands and the overlap width online through a full
	// resplit transition (new decomposition, new communication plan, fresh
	// symbolic pattern and factorization, iterates remapped across the old
	// and new bands). Every proposal passes the paper's Theorem-1 safety
	// check first (a conservative diagonal-dominance contraction bound valid
	// for every WeightScheme); unsafe proposals are counted and skipped.
	// Asynchronous runs never resplit (a global transition needs lockstep),
	// so Adapt is a no-op under Async. Decisions use committed virtual-time
	// data only, so adaptive runs stay byte-identical for any worker or lane
	// count.
	// Rejected (ErrIncompatible) with BandsPerProc > 1 and with TwoStage; see
	// Options.check for the reasons.
	Adapt bool
	// AdaptInterval is the number of iterations between controller epochs,
	// at least 1 when Adapt is on.
	AdaptInterval int
	// AdaptHysteresis is the minimal relative band-size change an accepted
	// resplit must reach, > 0 when Adapt is on; smaller proposals are
	// discarded so measurement noise cannot thrash the split.
	AdaptHysteresis float64
	// TwoStage enables the two-stage (inner-iterative) solver mode: each
	// band's inner solve becomes a scheduled number of relaxation sweeps
	// preconditioned by a narrow band LU instead of the exact band
	// factorization, which keeps factorization memory O(n·width) and opens
	// problem sizes where the exact method runs out of memory. Composes
	// with every exchange policy, fault tolerance, gateway aggregation,
	// several bands per processor and sharded lanes. See twostage.go and
	// DESIGN.md §14.
	TwoStage TwoStage
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Solver == nil {
		out.Solver = &splu.SparseLU{}
	}
	if out.Tol == 0 {
		out.Tol = 1e-8
	}
	if out.MaxIter == 0 {
		out.MaxIter = 100000
	}
	if out.BandsPerProc == 0 {
		out.BandsPerProc = 1
	}
	if out.TwoStage.enabled() && out.TwoStage.Omega == 0 {
		out.TwoStage.Omega = 1
	}
	return out
}

// ErrIncompatible is wrapped by every error that rejects a combination of
// individually valid options — the two Adapt pairs in Options.check and
// nothing else; test for it with errors.Is.
var ErrIncompatible = errors.New("core: incompatible options")

// RangeError is an option outside its range, found before any virtual time
// is spent.
type RangeError struct {
	// Option names the Options field.
	Option string
	// Value is the field's value after the defaults were filled in.
	Value any
	// Want states the range Value misses.
	Want string
}

// Error names the field, its value and its range.
func (e *RangeError) Error() string {
	return fmt.Sprintf("core: option out of range (%s %v, want %s)", e.Option, e.Value, e.Want)
}

// Validate checks what of the options needs neither a system nor hosts, with
// the defaults Launch fills in: each field in its range (a *RangeError), the
// adaptive and two-stage parameters only when their mode is on, and the two
// incompatible pairs. Launch runs the same checks; a command calls Validate
// to reject its flags before it reads a matrix.
func (o Options) Validate() error {
	d := o.withDefaults()
	return d.check()
}

// validate is the one place a defaulted option set is checked against the
// system size and the host count, before any virtual time is spent.
func (o *Options) validate(n, nHosts int) error {
	switch {
	case nHosts == 0:
		return errors.New("core: no hosts")
	case o.SolverPerRank != nil && len(o.SolverPerRank) != nHosts:
		return fmt.Errorf("core: SolverPerRank has %d entries for %d hosts", len(o.SolverPerRank), nHosts)
	}
	if err := o.check(); err != nil {
		return err
	}
	if nHosts*o.BandsPerProc > n {
		return fmt.Errorf("core: %d hosts with %d bands each exceed the %d unknowns", nHosts, o.BandsPerProc, n)
	}
	return nil
}

// check is Validate on a defaulted option set. A NaN fails every range.
func (o *Options) check() error {
	if err := enumRange(SchemeNames, "Scheme", o.Scheme); err != nil {
		return err
	}
	if err := enumRange(ScheduleNames, "TwoStage.Schedule", o.TwoStage.Schedule); err != nil {
		return err
	}
	ts := o.TwoStage
	switch {
	case !(o.Tol > 0):
		return &RangeError{"Tol", o.Tol, "> 0"}
	case math.IsInf(o.Tol, 1): // every step would pass the convergence test
		return &RangeError{"Tol", o.Tol, "finite"}
	case o.MaxIter < 0:
		return &RangeError{"MaxIter", o.MaxIter, ">= 0"}
	case o.BandsPerProc < 0:
		return &RangeError{"BandsPerProc", o.BandsPerProc, ">= 0"}
	case o.Overlap < 0:
		return &RangeError{"Overlap", o.Overlap, ">= 0"}
	case o.Adapt && o.AdaptInterval < 1:
		return &RangeError{"AdaptInterval", o.AdaptInterval, ">= 1"}
	case o.Adapt && !(o.AdaptHysteresis > 0):
		return &RangeError{"AdaptHysteresis", o.AdaptHysteresis, "> 0"}
	case ts.enabled() && !(ts.Omega > 0 && ts.Omega < 2):
		return &RangeError{"TwoStage.Omega", ts.Omega, "in (0, 2)"}
	case ts.enabled() && ts.PrecondBand < 1:
		return &RangeError{"TwoStage.PrecondBand", ts.PrecondBand, ">= 1"}
	}
	// The controller resizes one contiguous band per rank from per-rank busy
	// windows; moving cyclic bands between ranks is the band-migration design
	// of ROADMAP item 4.
	if o.Adapt && o.BandsPerProc > 1 {
		return fmt.Errorf("%w: Adapt with BandsPerProc > 1", ErrIncompatible)
	}
	// The Theorem-1 check that guards every resplit bounds the exact band
	// splitting, not an inner-iterated one.
	if o.Adapt && o.TwoStage.enabled() {
		return fmt.Errorf("%w: Adapt with TwoStage", ErrIncompatible)
	}
	return nil
}

// Result reports a distributed multisplitting solve.
type Result struct {
	// X is the assembled solution (owned segments gathered at rank 0).
	X []float64
	// Converged reports whether the accuracy was reached before MaxIter.
	Converged bool
	// Iterations is the maximum iteration count over the ranks (in async
	// mode ranks iterate different numbers of times).
	Iterations int
	// IterationsPerRank records each rank's own count.
	IterationsPerRank []int
	// IdleSteps counts, over all ranks, the exact band steps whose inputs had
	// not changed since the band's previous step — an asynchronous rank
	// iterating faster than its neighbours' data arrives. The grid pays them.
	IdleSteps int
	// IdleStepsPerRank records each rank's own share of IdleSteps.
	IdleStepsPerRank []int
	// FactorTime is the largest per-rank factorization time in virtual
	// seconds (the paper's "factorization time" column).
	FactorTime float64
	// Time is the total virtual solve time (latest rank finish).
	Time float64
	// BytesSent totals solver payload traffic across ranks.
	BytesSent int64
	// MsgsSent totals solver messages across ranks.
	MsgsSent int64
	// IntraBytes splits BytesSent: the share whose source and destination
	// host share a declared cluster (everything counts as intra on a
	// platform without cluster declarations).
	IntraBytes int64
	// InterBytes is the remaining share of BytesSent — the WAN traffic the
	// topology-aware modes are built to shrink.
	InterBytes int64
	// IntraMsgs splits MsgsSent the way IntraBytes splits BytesSent.
	IntraMsgs int64
	// InterMsgs is the inter-cluster share of MsgsSent.
	InterMsgs int64
	// TotalFlops is the summed arithmetic work over all ranks, merged from
	// the per-rank counters through an atomic aggregation point (safe under
	// the parallel scheduler).
	TotalFlops float64
	// FactorFlops is the factorization arithmetic summed over all bands of
	// all ranks: the band preconditioner factors in two-stage mode (plus any
	// fallback factorization), the exact band LU otherwise. The
	// inner-sweep/factor split is the two-stage economy the benchmarks
	// record.
	FactorFlops float64
	// InnerSweeps totals the two-stage inner relaxation sweeps across ranks
	// (zero in exact mode).
	InnerSweeps int64
	// InnerFlops totals the arithmetic spent inside those sweeps.
	InnerFlops float64
	// TwoStageFallbacks counts the bands whose inner iteration diverged and
	// fell back to the exact band solve.
	TwoStageFallbacks int
	// Resplits counts the adaptive resplit transitions applied during the
	// solve (zero without Options.Adapt).
	Resplits int
	// ResplitRejected counts controller proposals the Theorem-1 safety check
	// refused; they were skipped, never applied.
	ResplitRejected int
	// ResplitFlops is the total arithmetic the resplit transitions cost
	// across ranks: the re-derived symbolic patterns and full band
	// refactorizations plus the communication-plan rebuilds. It is included
	// in TotalFlops and FactorFlops already; this field breaks the adaptive
	// overhead out for the benchmarks.
	ResplitFlops float64
	// ResplitEvents is the resplit timeline: one entry per applied
	// transition, in virtual-time order.
	ResplitEvents []ResplitEvent
}

// ResplitEvent records one applied resplit transition.
type ResplitEvent struct {
	// Time is the virtual time the transition completed.
	Time float64
	// Iter is the iteration count at the epoch.
	Iter int
	// MaxDelta is the largest owned-band size change (rows) the transition
	// applied (0 for an overlap-only transition).
	MaxDelta int
	// Overlap is the overlap width after the transition.
	Overlap int
}

// Pending is a solve registered on an engine; read the Result after the
// engine has run.
type Pending struct {
	res   Result
	sess  *Session // owes this solve's FactorFlops until Finish
	procs []*vgrid.Proc
	mu    sync.Mutex // finishRank: lanes finish ranks concurrently
	done  bool
	// total aggregates per-rank flop counts. Counters are single-owner
	// (see vec.Counter); this is their one cross-process meeting point.
	total vec.Total
}

// Result returns the solve outcome; it panics if the engine has not run.
func (p *Pending) Result() *Result {
	if !p.done {
		panic("core: Result read before the engine ran")
	}
	p.res.TotalFlops = p.total.Value()
	return &p.res
}

// Running reports whether any solver rank is still executing; background
// traffic generators use it as their shutdown condition.
func (p *Pending) Running() bool {
	for _, pr := range p.procs {
		if !pr.Done() {
			return true
		}
	}
	return false
}

// Finish marks the result readable and adds the solve's factorization
// arithmetic to its session's tally. Call it after the engine has run; it is
// needed when ranks failed (e.g. out of memory) before filling the result.
func (p *Pending) Finish() {
	if p.sess != nil {
		p.sess.FactorFlops += p.res.FactorFlops
		p.sess = nil
	}
	p.done = true
}

// finish is the tail of a run this package drove itself: the engine's end
// time and error in, the result out, ErrNoConvergence reported with the
// partial result attached.
func (p *Pending) finish(end float64, runErr error) (*Result, error) {
	p.res.Time = end
	p.Finish()
	res := p.Result()
	if runErr != nil {
		return res, runErr
	}
	if !res.Converged {
		return res, ErrNoConvergence
	}
	return res, nil
}

// finishRank folds one finished rank into the result. Ranks in different
// scheduler lanes finish concurrently, hence the lock; what is folded is a
// maximum or a sum of integer-valued tallies, so the order of arrival does
// not show. The flop total has its own atomic meeting point.
func (p *Pending) finishRank(st *rankState, factTime, resplitFlops float64, converged bool) {
	c := st.c
	p.mu.Lock()
	defer p.mu.Unlock()
	res := &p.res
	res.IterationsPerRank[st.rank] = st.iter
	res.Iterations = max(res.Iterations, st.iter)
	res.FactorTime = max(res.FactorTime, factTime)
	if st.rank == 0 {
		res.Converged = converged
	}
	for i := range st.bands {
		if ts := st.bands[i].ts; ts != nil {
			res.InnerSweeps += ts.totalSweeps
			res.InnerFlops += ts.innerFlops
			res.TwoStageFallbacks += ts.fallbacks
		}
	}
	res.FactorFlops += st.factFlops
	res.ResplitFlops += resplitFlops
	res.IdleSteps += st.idleSteps
	res.IdleStepsPerRank[st.rank] = st.idleSteps
	res.BytesSent += c.Proc().BytesSent
	res.MsgsSent += c.Proc().MsgsSent
	res.IntraBytes += c.Proc().IntraBytes
	res.InterBytes += c.Proc().InterBytes
	res.IntraMsgs += c.Proc().IntraMsgs
	res.InterMsgs += c.Proc().InterMsgs
	res.Time = max(res.Time, c.Now())
	p.total.MergeCounter(st.ctx.Counter)
	p.done = true
}

// Launch registers the multisplitting solver on the engine, one rank per
// host owning BandsPerProc bands (one band per processor is the simple
// variant of Section 2; see paper Remark 2). The matrix and right-hand side
// are globally readable at load time, as the paper's Initialization step
// allows. Call engine.Run, then Pending.Finish, then read Pending.Result.
//
// It is the first Resolve of a session nobody keeps: the set-up, the rank
// body and the result are Session.Launch's, and a is read, never copied.
func Launch(e *vgrid.Engine, hosts []*vgrid.Host, a *sparse.CSR, b []float64, opt Options) (*Pending, error) {
	s := &Session{a: a, o: opt.withDefaults()}
	return s.Launch(e, hosts, nil, b)
}

// Solve builds an engine over the platform, runs the solver on the given
// hosts and returns the result. ErrNoConvergence is reported with the
// partial result attached.
func Solve(pl *vgrid.Platform, hosts []*vgrid.Host, a *sparse.CSR, b []float64, opt Options) (*Result, error) {
	e := vgrid.NewEngine(pl)
	pend, err := Launch(e, hosts, a, b, opt)
	if err != nil {
		return nil, err
	}
	return pend.finish(e.Run())
}

func csrBytes(m *sparse.CSR) int64 {
	return int64(m.NNZ())*16 + int64(len(m.RowPtr))*8
}

// equilibrate left-scales a in place by its inverse diagonal (D⁻¹A) and
// returns the diagonal D it divided by, which scaleRHS applies to every
// right-hand side. The solution of the scaled system equals the original's.
func equilibrate(a *sparse.CSR) ([]float64, error) {
	diag := a.Diagonal()
	for i, d := range diag {
		if d == 0 {
			return nil, fmt.Errorf("core: cannot equilibrate, zero diagonal at row %d", i)
		}
	}
	for i := 0; i < a.Rows; i++ {
		inv := 1 / diag[i]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			a.Val[p] *= inv
		}
	}
	return diag, nil
}

// scaleRHS returns D⁻¹b for the diagonal equilibrate returned.
func scaleRHS(b, diag []float64) []float64 {
	nb := make([]float64, len(b))
	for i := range b {
		nb[i] = b[i] / diag[i]
	}
	return nb
}
