// Command msolve solves a linear system from a MatrixMarket file with the
// multisplitting-direct method on a simulated grid.
//
// Usage:
//
//	msolve -matrix A.mtx [-rhs b.txt] [-procs N] [-overlap K] [-async]
//	       [-scheme owner|average] [-solver sparse|dense|band]
//	       [-cluster cluster1|cluster2|cluster3] [-tol 1e-8] [-o x.txt]
//	       [-hosts N [-clusters C] [-het H] [-synth-seed S]]
//	       [-topo] [-gateway]
//	       [-ft] [-drop P] [-drop-link NAME] [-crash host@from:until,...]
//	       [-slow host@from:until:factor,...] [-fault-seed S]
//	       [-trace-json out.json] [-metrics-out PREFIX]
//	       [-critical-path] [-window W] [-stream-trace]
//	       [-adapt] [-adapt-interval K] [-adapt-hysteresis H] [-balance]
//
// -hosts switches from the built-in clusters to a generated grid platform
// (see vgrid.Synthetic): N hosts split into -clusters LAN islands joined by
// a shared WAN backbone, host speeds spread by ±het around the base rate,
// deterministically from -synth-seed. All hosts run solver ranks unless
// -procs narrows the count, and the fault/topology/observability flags work
// unchanged (the generated backbone link is named "wan", like cluster3's).
//
// The topology flags engage the cluster-aware communication plans on
// platforms that declare clusters (all three built-in clusters do; only
// cluster3 spans two sites, so they change nothing on the others): -topo
// routes the collectives through per-cluster leaders, -gateway batches the
// inter-site boundary exchange (and, synchronously, the convergence
// reduction) through per-cluster aggregator ranks. Both modes leave the
// iterates bitwise identical to the direct plan; the reported cluster
// traffic split shows what they save.
//
// Without -rhs the right-hand side is manufactured as b = A·1 so the exact
// solution is the all-ones vector and the reported error is meaningful.
//
// The observability flags profile the run on the virtual clock: -trace-json
// writes a Chrome trace-event file loadable in Perfetto (ui.perfetto.dev),
// -metrics-out writes per-host utilization, per-link traffic and convergence
// series as PREFIX.metrics.json/.csv, and -critical-path prints the makespan
// decomposed into compute/network/wait along the run's critical path.
// -window W folds the run into fixed virtual-time windows (per-window host
// utilization, link traffic/staleness, residual progress, critical-path
// attribution, and per-lane scheduler stats on sharded runs; analyzed with
// cmd/msprof), and -stream-trace flushes the Perfetto trace incrementally
// behind a bounded flight-recorder ring so span memory stays flat on huge
// grids. -trace prints a per-processor activity timeline drawn from the same
// record, so it cannot be combined with -stream-trace, which retains no span.
// All outputs are deterministic for any -workers and -lanes value (-lanes 0
// shards the event core into one scheduler lane per cluster).
//
// The fault flags inject deterministic failures into the simulated grid:
// -drop loses each message crossing -drop-link (default the inter-site
// "wan" link of cluster3) with probability P, -crash takes hosts down over
// virtual-time windows ("until" may be "inf" for a permanent crash), and
// -slow stretches a host's compute by the given factor over a window
// (factor ≥ 1; a degraded-but-alive processor). -ft enables the
// fault-tolerant mode (retransmission, receive timeouts with dead-rank
// diagnostics, detector refresh); without it the solver runs the plain
// protocol and shows how it stalls under loss.
//
// -balance sizes the bands by nameplate host speed (the paper's
// heterogeneous partitioning); -adapt makes the decomposition live: a
// deterministic controller observes every rank's committed compute windows
// each -adapt-interval iterations and resplits the bands online when the
// observed effective speeds drift by more than -adapt-hysteresis (e.g.
// under a -slow window), guarded by the paper's Theorem-1 contraction
// bound. The run prints a resplit summary line (count, virtual times, band
// deltas); all outputs stay deterministic for any -workers/-lanes value.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// spec is one msolve run. The flags bind straight into it: opts and export
// reach core.Launch and obs.Export.Begin as they are.
type spec struct {
	matrix, rhs, out        string
	scheme, solver, cluster string
	procs, workers, lanes   int
	cond, trace             bool
	// The generated grid (synHosts 0 = use cluster).
	synHosts, synClusters int
	synHet                float64
	synSeed               int64
	// twoStage gates opts.TwoStage, whose fields hold the -inner, -omega,
	// -inner-schedule and -precond-band values either way.
	twoStage bool
	opts     core.Options
	// The fault plan: a loss rule on one link, and the crash and slowdown
	// schedules in the grammar of vgrid.FaultPlan.
	drop        float64
	dropLink    string
	crash, slow string
	faultSeed   int64
	export      obs.Export
}

// The legal -scheme and -solver names.
var (
	schemes = map[string]core.WeightScheme{"owner": core.WeightOwner, "average": core.WeightAverage}
	solvers = map[string]splu.Direct{
		"sparse": &splu.SparseLU{}, "dense": splu.DenseSolver{}, "band": splu.BandSolver{Reorder: true},
	}
)

// lookup sets *dst to the value the -what flag names in table, or returns
// an error listing the legal names.
func lookup[V any](what, name string, table map[string]V, dst *V) error {
	v, ok := table[name]
	if !ok {
		legal := make([]string, 0, len(table))
		for k := range table {
			legal = append(legal, k)
		}
		sort.Strings(legal)
		return fmt.Errorf("unknown %s %q (want %s)", what, name, strings.Join(legal, ", "))
	}
	*dst = v
	return nil
}

// bind declares the command's flags on fs, each writing its field of s.
func (s *spec) bind(fs *flag.FlagSet) {
	fs.StringVar(&s.matrix, "matrix", "", "MatrixMarket file with the system matrix (required)")
	fs.StringVar(&s.rhs, "rhs", "", "right-hand side vector file (default: b = A·1)")
	fs.IntVar(&s.procs, "procs", 4, "number of processors (bands)")
	fs.IntVar(&s.opts.Overlap, "overlap", 0, "overlap rows on each band side")
	fs.BoolVar(&s.opts.Async, "async", false, "use the asynchronous variant")
	fs.BoolVar(&s.opts.TopoCollectives, "topo", false, "route collectives through per-cluster leaders (two-level reduce/broadcast)")
	fs.BoolVar(&s.opts.Gateway, "gateway", false, "batch the inter-cluster boundary exchange through per-cluster aggregator ranks")
	fs.StringVar(&s.scheme, "scheme", "owner", "weighting scheme: owner or average")
	fs.StringVar(&s.solver, "solver", "sparse", "per-band direct solver: sparse, dense or band")
	fs.StringVar(&s.cluster, "cluster", "cluster1", "simulated platform: cluster1, cluster2 or cluster3")
	fs.IntVar(&s.synHosts, "hosts", 0, "run on a generated grid of this many hosts instead of -cluster (0 = use -cluster)")
	fs.IntVar(&s.synClusters, "clusters", 1, "cluster count of the generated grid")
	fs.Float64Var(&s.synHet, "het", 0, "speed heterogeneity of the generated grid in [0, 1): hosts spread ±het around the base rate")
	fs.Int64Var(&s.synSeed, "synth-seed", 1, "seed of the generated grid's host speeds")
	fs.Float64Var(&s.opts.Tol, "tol", 1e-8, "successive-iterate accuracy")
	fs.BoolVar(&s.cond, "cond", false, "estimate the 1-norm condition number before solving")
	fs.BoolVar(&s.trace, "trace", false, "print a per-processor activity timeline after the solve")
	fs.IntVar(&s.workers, "workers", 0, "worker threads for compute segments (0 = GOMAXPROCS); results are identical for any value")
	fs.IntVar(&s.lanes, "lanes", 1, "scheduler lanes (0 = auto: one per cluster); results are identical for any value")
	fs.StringVar(&s.out, "o", "", "write the solution vector to this file")
	fs.StringVar(&s.export.TraceJSON, "trace-json", "", "write a Chrome trace-event JSON (open in Perfetto / chrome://tracing) of the run to this file")
	fs.StringVar(&s.export.MetricsOut, "metrics-out", "", "write utilization/convergence metrics to PREFIX.metrics.json and PREFIX.metrics.csv")
	fs.BoolVar(&s.export.CriticalPath, "critical-path", false, "print the critical-path decomposition of the makespan after the solve")
	fs.Float64Var(&s.export.Window, "window", 0, "windowed telemetry: fold the run into fixed virtual-time windows of this width in seconds — per-window host utilization/wait share, link traffic/staleness, series and critical-path attribution; prints a summary, writes PREFIX.windows.{json,csv} with -metrics-out, and enables lane telemetry on sharded runs (0 = off; every other output stays byte-identical)")
	fs.BoolVar(&s.export.StreamTrace, "stream-trace", false, "stream -trace-json incrementally behind a bounded flight-recorder ring instead of batch-exporting after the run: span memory stays bounded on huge grids, but the spans are not retained, so -critical-path is unavailable (default off keeps today's batch export byte-identical)")
	fs.BoolVar(&s.opts.FaultTolerant, "ft", false, "enable the fault-tolerant mode (retransmission, timeouts, degraded operation)")
	fs.Float64Var(&s.drop, "drop", 0, "drop each message on -drop-link with this probability")
	fs.StringVar(&s.dropLink, "drop-link", "wan", "name of the link losing messages (cluster3's inter-site link is \"wan\")")
	fs.StringVar(&s.crash, "crash", "", "crash schedule: comma-separated host@from:until windows in virtual seconds (until may be inf)")
	fs.StringVar(&s.slow, "slow", "", "slowdown schedule: comma-separated host@from:until:factor windows (factor >= 1 stretches the host's compute; until may be inf)")
	fs.Int64Var(&s.faultSeed, "fault-seed", 42, "seed of the deterministic fault injection")
	fs.BoolVar(&s.opts.Balance, "balance", false, "size the bands proportionally to nameplate host speed instead of equally")
	fs.BoolVar(&s.opts.Adapt, "adapt", false, "live decomposition: resplit the bands online from observed effective speeds (synchronous mode only)")
	fs.IntVar(&s.opts.AdaptInterval, "adapt-interval", 20, "iterations between adaptive controller epochs")
	fs.Float64Var(&s.opts.AdaptHysteresis, "adapt-hysteresis", 0.1, "minimal relative band-size change an accepted resplit must reach")
	fs.BoolVar(&s.twoStage, "two-stage", false, "solve each band by inner relaxation sweeps on a narrow band preconditioner instead of an exact factorization (reaches matrices whose LU fill does not fit in memory)")
	fs.IntVar(&s.opts.TwoStage.InnerIters, "inner", 4, "inner sweeps per outer iteration in -two-stage mode")
	fs.StringVar(&s.opts.TwoStage.Schedule, "inner-schedule", "fixed", "inner-sweep schedule in -two-stage mode: fixed, ramp or residual")
	fs.Float64Var(&s.opts.TwoStage.Omega, "omega", 1, "inner relaxation weight in (0, 2) for -two-stage mode")
	fs.IntVar(&s.opts.TwoStage.PrecondBand, "precond-band", 16, "half-bandwidth of the band preconditioner in -two-stage mode")
}

// run is the command behind main: it parses args, solves onto stdout and
// returns the exit status (0 ok, 1 the run failed, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	var s spec
	fs := flag.NewFlagSet("msolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	s.bind(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if s.matrix == "" {
		fs.Usage()
		return 2
	}
	if s.synHosts > 0 {
		// On a generated grid every host runs a rank unless -procs was given
		// explicitly (the built-in clusters keep their default of 4).
		procsSet := false
		fs.Visit(func(f *flag.Flag) { procsSet = procsSet || f.Name == "procs" })
		if !procsSet {
			s.procs = s.synHosts
		}
	}
	if !s.twoStage {
		s.opts.TwoStage = core.TwoStage{}
	}
	err := s.export.Validate()
	if err == nil {
		err = lookup("scheme", s.scheme, schemes, &s.opts.Scheme)
	}
	if err == nil {
		err = lookup("solver", s.solver, solvers, &s.opts.Solver)
	}
	switch {
	case err != nil:
	case s.procs < 1:
		err = errors.New("-procs must be >= 1")
	case s.lanes < 0:
		err = errors.New("-lanes must be >= 0")
	case s.workers < 0:
		err = errors.New("-workers must be >= 0")
	case s.trace && s.export.StreamTrace:
		err = errors.New("-stream-trace does not retain spans, so -trace has no timeline to draw; drop one of the two")
	case s.twoStage && s.opts.TwoStage.InnerIters < 1:
		// InnerIters 0 means "two-stage off" to the solver: it would
		// silently run the exact band solves instead.
		err = errors.New("-two-stage needs -inner >= 1")
	case s.twoStage:
		// -inner-schedule, -omega and -precond-band, which the solver
		// would only reject once the matrix is read.
		err = s.opts.TwoStage.Validate()
	}
	if err != nil {
		fmt.Fprintln(stderr, "msolve:", err)
		return 2
	}
	if err := s.solve(stdout); err != nil {
		fmt.Fprintln(stderr, "msolve:", err)
		return 1
	}
	return 0
}

// rightHandSide reads the -rhs file; without one it manufactures b = A·1 and
// returns the exact all-ones solution with it.
func (s *spec) rightHandSide(a *sparse.CSR) (b, exact []float64, err error) {
	if s.rhs == "" {
		exact, b = make([]float64, a.Rows), make([]float64, a.Rows)
		vec.Fill(exact, 1)
		a.MulVec(b, exact, &vec.Counter{})
		return b, exact, nil
	}
	f, err := os.Open(s.rhs)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if b, err = mmio.ReadVector(f); err == nil && len(b) != a.Rows {
		err = fmt.Errorf("rhs has %d entries, matrix has %d rows", len(b), a.Rows)
	}
	return b, nil, err
}

// platform builds the generated grid or the named cluster.
func (s *spec) platform() (*cluster.Platform, error) {
	switch {
	case s.synHosts <= 0:
		return cluster.ByName(s.cluster, s.procs)
	case s.synClusters < 1 || s.synClusters > s.synHosts:
		return nil, fmt.Errorf("generated grid: %d clusters for %d hosts", s.synClusters, s.synHosts)
	case s.synHet < 0 || s.synHet >= 1:
		return nil, fmt.Errorf("generated grid: heterogeneity %g outside [0, 1)", s.synHet)
	}
	return cluster.Synthetic(s.synHosts, s.synClusters, s.synHet, s.synSeed), nil
}

// faultPlan compiles the fault flags into a vgrid fault plan (nil when no
// fault was requested).
func (s *spec) faultPlan() (*vgrid.FaultPlan, error) {
	if s.drop == 0 && s.crash == "" && s.slow == "" {
		return nil, nil
	}
	fp := vgrid.NewFaultPlan(s.faultSeed)
	if s.drop > 0 {
		fp.DropOnLink(s.dropLink, 0, math.Inf(1), s.drop)
	}
	if err := fp.ParseCrashes(s.crash); err != nil {
		return nil, err
	}
	return fp, fp.ParseSlowdowns(s.slow)
}

// solve runs the spec and prints the report.
func (s *spec) solve(stdout io.Writer) error {
	a, err := mmio.ReadMatrixAuto(s.matrix)
	if err != nil {
		return err
	}
	if a.Rows != a.Cols {
		return fmt.Errorf("matrix is %dx%d, need square", a.Rows, a.Cols)
	}
	if s.cond {
		var cc vec.Counter
		f, err := (&splu.SparseLU{}).Factor(a, &cc)
		if err != nil {
			return fmt.Errorf("condition estimate: %w", err)
		}
		fmt.Fprintf(stdout, "estimated condition number kappa_1(A) ~ %.3e\n", splu.CondEst1(a, f, &cc))
	}
	b, exact, err := s.rightHandSide(a)
	if err != nil {
		return err
	}
	plt, err := s.platform()
	if err != nil {
		return err
	}
	hosts := plt.Hosts[:max(0, min(s.procs, len(plt.Hosts), a.Rows))]

	e := vgrid.NewEngine(plt.Platform)
	if s.workers > 0 {
		e.SetWorkers(s.workers)
	}
	if s.lanes != 1 {
		e.SetLanes(s.lanes)
	}
	plan, err := s.faultPlan()
	if err != nil {
		return err
	}
	if plan != nil {
		e.SetFaultPlan(plan)
		fmt.Fprintf(stdout, "fault injection: seed %d, drop %.3g on %q, crash schedule %q, slowdown schedule %q, fault-tolerant %v\n",
			s.faultSeed, s.drop, s.dropLink, s.crash, s.slow, s.opts.FaultTolerant)
	}
	// rec is the run's one event record: the export's recorder, or a bare
	// one when only -trace needs it.
	var ex *obs.Exporting
	var rec *obs.Recorder
	if s.export != (obs.Export{}) {
		if ex, err = s.export.Begin(); err != nil {
			return err
		}
		rec = ex.Rec
	} else if s.trace {
		rec = &obs.Recorder{}
	}
	e.Observe(rec)
	if s.export.Window > 0 {
		e.SetLaneTelemetry(s.export.Window)
	}
	pend, err := core.Launch(e, hosts, a, b, s.opts)
	if err != nil {
		return err
	}
	_, err = e.Run()
	pend.Finish()
	if err != nil {
		return err
	}
	if ex != nil {
		// Export before the convergence verdict: a stalled run is exactly
		// the kind the profile should explain.
		if err := s.printExport(stdout, ex, e); err != nil {
			return err
		}
	}
	res := pend.Result()
	if !res.Converged {
		return core.ErrNoConvergence
	}
	s.printResult(stdout, a, len(hosts), res)
	var c vec.Counter
	y := make([]float64, a.Rows)
	a.MulVec(y, res.X, &c)
	fmt.Fprintf(stdout, "residual ‖Ax−b‖∞ = %.3e\n", vec.DiffNormInf(y, b, &c))
	if exact != nil {
		fmt.Fprintf(stdout, "error vs exact all-ones solution: %.3e\n", vec.DiffNormInf(res.X, exact, &c))
	}
	if s.trace {
		fmt.Fprintln(stdout, "\nper-processor activity timeline (event density over virtual time):")
		if err := writeTimeline(stdout, timelineEvents(rec, e.Stats()), 64); err != nil {
			return err
		}
	}
	if s.out != "" {
		if err := obs.WriteFile(s.out, func(w io.Writer) error { return mmio.WriteVector(w, res.X) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "solution written to %s\n", s.out)
	}
	return nil
}

// printExport writes the run's artifacts and prints what was written, the
// windowed summary, the critical-path report and — a sharded -window run has
// them — the scheduler-lane windows, which -metrics-out sends to
// PREFIX.lanes.json.
func (s *spec) printExport(stdout io.Writer, ex *obs.Exporting, e *vgrid.Engine) error {
	x := s.export
	out, err := ex.Finish(e.Now())
	if err != nil {
		return err
	}
	switch {
	case x.StreamTrace:
		fmt.Fprintf(stdout, "trace streamed to %s: %d spans flushed, peak %d in ring (%d overflow flushes)\n",
			x.TraceJSON, out.Flushed, out.PeakPending, out.OverflowFlushes)
	case x.TraceJSON != "":
		fmt.Fprintf(stdout, "trace written to %s (open in ui.perfetto.dev)\n", x.TraceJSON)
	}
	if x.MetricsOut != "" {
		fmt.Fprintf(stdout, "metrics written to %s.metrics.{json,csv}\n", x.MetricsOut)
	}
	if out.Windows != nil {
		out.Windows.Fprint(stdout, 12)
		if x.MetricsOut != "" {
			fmt.Fprintf(stdout, "windowed metrics written to %s.windows.{json,csv}\n", x.MetricsOut)
		}
	}
	if out.CritPath != nil {
		out.CritPath.Fprint(stdout, 10)
	}
	lt := e.LaneTelemetry()
	if len(lt) == 0 {
		return nil
	}
	vgrid.FprintLaneTelemetry(stdout, lt, x.Window, 12)
	if x.MetricsOut != "" {
		path := x.MetricsOut + ".lanes.json"
		if err := obs.WriteFile(path, func(w io.Writer) error { return vgrid.WriteLaneTelemetryJSON(w, lt) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "lane telemetry written to %s\n", path)
	}
	return nil
}

// printResult prints the solve summary.
func (s *spec) printResult(stdout io.Writer, a *sparse.CSR, procs int, res *core.Result) {
	mode := "synchronous"
	if s.opts.Async {
		mode = "asynchronous"
	}
	if s.opts.TopoCollectives {
		mode += ", topo collectives"
	}
	if s.opts.Gateway {
		mode += ", gateway exchange"
	}
	fmt.Fprintf(stdout, "solved n=%d nnz=%d on %d processors (%s, %s weights, %s solver, overlap %d)\n",
		a.Rows, a.NNZ(), procs, mode, s.scheme, s.solver, s.opts.Overlap)
	steps := 0
	for _, it := range res.IterationsPerRank {
		steps += it
	}
	fmt.Fprintf(stdout, "virtual time %.4fs (factorization %.4fs), iterations %d (%d of %d band steps idle), traffic %d bytes in %d messages\n",
		res.Time, res.FactorTime, res.Iterations, res.IdleSteps, steps, res.BytesSent, res.MsgsSent)
	if ts := s.opts.TwoStage; res.InnerSweeps > 0 {
		fmt.Fprintf(stdout, "two-stage: %d inner sweeps (%s schedule, omega %g, band %d), %.3g inner flops vs %.3g factor flops, %d fallbacks\n",
			res.InnerSweeps, ts.Schedule, ts.Omega, ts.PrecondBand, res.InnerFlops, res.FactorFlops, res.TwoStageFallbacks)
	}
	fmt.Fprintf(stdout, "cluster traffic: intra %d bytes in %d messages, inter %d bytes in %d messages\n",
		res.IntraBytes, res.IntraMsgs, res.InterBytes, res.InterMsgs)
	if s.opts.Adapt {
		fmt.Fprintf(stdout, "resplits: %d applied, %d rejected by safety check, %.3g transition flops\n",
			res.Resplits, res.ResplitRejected, res.ResplitFlops)
		for _, ev := range res.ResplitEvents {
			fmt.Fprintf(stdout, "  iter %-5d t=%.4fs  max band delta %d rows, overlap %d\n",
				ev.Iter, ev.Time, ev.MaxDelta, ev.Overlap)
		}
	}
}
