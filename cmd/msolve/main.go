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
// grids. All outputs are deterministic for any -workers and -lanes value
// (-lanes 0 shards the event core into one scheduler lane per cluster).
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
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

func main() {
	var (
		matrixPath = flag.String("matrix", "", "MatrixMarket file with the system matrix (required)")
		rhsPath    = flag.String("rhs", "", "right-hand side vector file (default: b = A·1)")
		procs      = flag.Int("procs", 4, "number of processors (bands)")
		overlap    = flag.Int("overlap", 0, "overlap rows on each band side")
		async      = flag.Bool("async", false, "use the asynchronous variant")
		topo       = flag.Bool("topo", false, "route collectives through per-cluster leaders (two-level reduce/broadcast)")
		gateway    = flag.Bool("gateway", false, "batch the inter-cluster boundary exchange through per-cluster aggregator ranks")
		schemeName = flag.String("scheme", "owner", "weighting scheme: owner or average")
		solverName = flag.String("solver", "sparse", "per-band direct solver: sparse, dense or band")
		clusterTyp = flag.String("cluster", "cluster1", "simulated platform: cluster1, cluster2 or cluster3")
		synHosts   = flag.Int("hosts", 0, "run on a generated grid of this many hosts instead of -cluster (0 = use -cluster)")
		synClust   = flag.Int("clusters", 1, "cluster count of the generated grid")
		synHet     = flag.Float64("het", 0, "speed heterogeneity of the generated grid in [0, 1): hosts spread ±het around the base rate")
		synSeed    = flag.Int64("synth-seed", 1, "seed of the generated grid's host speeds")
		tol        = flag.Float64("tol", 1e-8, "successive-iterate accuracy")
		cond       = flag.Bool("cond", false, "estimate the 1-norm condition number before solving")
		trace      = flag.Bool("trace", false, "print a per-processor activity timeline after the solve")
		workers    = flag.Int("workers", 0, "worker threads for compute segments (0 = GOMAXPROCS); results are identical for any value")
		lanes      = flag.Int("lanes", 1, "scheduler lanes (0 = auto: one per cluster); results are identical for any value")
		outPath    = flag.String("o", "", "write the solution vector to this file")
		traceJSON  = flag.String("trace-json", "", "write a Chrome trace-event JSON (open in Perfetto / chrome://tracing) of the run to this file")
		metricsOut = flag.String("metrics-out", "", "write utilization/convergence metrics to PREFIX.metrics.json and PREFIX.metrics.csv")
		critPath   = flag.Bool("critical-path", false, "print the critical-path decomposition of the makespan after the solve")
		window     = flag.Float64("window", 0, "windowed telemetry: fold the run into fixed virtual-time windows of this width in seconds — per-window host utilization/wait share, link traffic/staleness, series and critical-path attribution; prints a summary, writes PREFIX.windows.{json,csv} with -metrics-out, and enables lane telemetry on sharded runs (0 = off; every other output stays byte-identical)")
		streamTr   = flag.Bool("stream-trace", false, "stream -trace-json incrementally behind a bounded flight-recorder ring instead of batch-exporting after the run: span memory stays bounded on huge grids, but the spans are not retained, so -critical-path is unavailable (default off keeps today's batch export byte-identical)")
		ft         = flag.Bool("ft", false, "enable the fault-tolerant mode (retransmission, timeouts, degraded operation)")
		drop       = flag.Float64("drop", 0, "drop each message on -drop-link with this probability")
		dropLink   = flag.String("drop-link", "wan", "name of the link losing messages (cluster3's inter-site link is \"wan\")")
		crash      = flag.String("crash", "", "crash schedule: comma-separated host@from:until windows in virtual seconds (until may be inf)")
		slow       = flag.String("slow", "", "slowdown schedule: comma-separated host@from:until:factor windows (factor >= 1 stretches the host's compute; until may be inf)")
		faultSeed  = flag.Int64("fault-seed", 42, "seed of the deterministic fault injection")
		balance    = flag.Bool("balance", false, "size the bands proportionally to nameplate host speed instead of equally")
		adapt      = flag.Bool("adapt", false, "live decomposition: resplit the bands online from observed effective speeds (synchronous mode only)")
		adaptInt   = flag.Int("adapt-interval", 20, "iterations between adaptive controller epochs")
		adaptHyst  = flag.Float64("adapt-hysteresis", 0.1, "minimal relative band-size change an accepted resplit must reach")
		twoStage   = flag.Bool("two-stage", false, "solve each band by inner relaxation sweeps on a narrow band preconditioner instead of an exact factorization (reaches matrices whose LU fill does not fit in memory)")
		inner      = flag.Int("inner", 4, "inner sweeps per outer iteration in -two-stage mode")
		innerSched = flag.String("inner-schedule", "fixed", "inner-sweep schedule in -two-stage mode: fixed, ramp or residual")
		omega      = flag.Float64("omega", 1, "inner relaxation weight in (0, 2) for -two-stage mode")
		pcBand     = flag.Int("precond-band", 16, "half-bandwidth of the band preconditioner in -two-stage mode")
	)
	flag.Parse()
	if *matrixPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *synHosts > 0 {
		// On a generated grid every host runs a rank unless -procs was given
		// explicitly (the built-in clusters keep their default of 4).
		procsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "procs" {
				procsSet = true
			}
		})
		if !procsSet {
			*procs = *synHosts
		}
	}
	synth := synthSpec{hosts: *synHosts, clusters: *synClust, het: *synHet, seed: *synSeed}
	faults := faultSpec{drop: *drop, dropLink: *dropLink, crash: *crash, slow: *slow, seed: *faultSeed, ft: *ft}
	ad := adaptSpec{balance: *balance, on: *adapt, interval: *adaptInt, hysteresis: *adaptHyst}
	ospec := obsSpec{traceJSON: *traceJSON, metricsOut: *metricsOut, critPath: *critPath,
		window: *window, streamTrace: *streamTr}
	if err := ospec.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "msolve:", err)
		os.Exit(2)
	}
	var ts core.TwoStage
	if *twoStage {
		if *inner < 1 {
			// InnerIters 0 means "two-stage off" to the solver: it would
			// silently run the exact band solves instead.
			fmt.Fprintln(os.Stderr, "msolve: -two-stage needs -inner >= 1")
			os.Exit(2)
		}
		ts = core.TwoStage{InnerIters: *inner, Schedule: *innerSched, Omega: *omega, PrecondBand: *pcBand}
	}
	if err := run(*matrixPath, *rhsPath, *procs, *overlap, *async, *topo, *gateway, *schemeName, *solverName, *clusterTyp, synth, *tol, *cond, *trace, *workers, *lanes, *outPath, faults, ospec, ts, ad); err != nil {
		fmt.Fprintln(os.Stderr, "msolve:", err)
		os.Exit(1)
	}
}

// synthSpec collects the generated-grid flags (hosts 0 = use -cluster).
type synthSpec struct {
	hosts, clusters int
	het             float64
	seed            int64
}

// obsSpec collects the observability flags.
type obsSpec struct {
	traceJSON   string
	metricsOut  string
	critPath    bool
	window      float64
	streamTrace bool
}

// enabled reports whether any observability output was requested.
func (ospec obsSpec) enabled() bool {
	return ospec.traceJSON != "" || ospec.metricsOut != "" || ospec.critPath || ospec.window > 0
}

// validate rejects contradictory observability flag combinations up front.
func (ospec obsSpec) validate() error {
	if ospec.window < 0 {
		return fmt.Errorf("-window must be >= 0")
	}
	if ospec.streamTrace && ospec.traceJSON == "" {
		return fmt.Errorf("-stream-trace needs -trace-json")
	}
	if ospec.streamTrace && ospec.critPath {
		return fmt.Errorf("-stream-trace does not retain spans, so -critical-path is unavailable; drop one of the two")
	}
	return nil
}

// traceStream is the -stream-trace output: the streamer and the file its
// buffered events drain into.
type traceStream struct {
	*obs.Streamer
	f *os.File
}

// Close terminates the trace document, drains the streamer's buffer into the
// file and closes it, returning the first error of the three steps.
func (ts *traceStream) Close() error {
	err := ts.Streamer.Close()
	if cerr := ts.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// attach prepares the streaming trace writer when -stream-trace is on: the
// recorder hands every span to a flight-recorder ring flushing incrementally
// into the trace file, and the window accumulator (when -window > 0) rides
// on the flushed spans. Returns the stream to Close after the run (nil in
// batch mode).
func (ospec obsSpec) attach(rec *obs.Recorder) (*traceStream, error) {
	if !ospec.streamTrace {
		return nil, nil
	}
	f, err := os.Create(ospec.traceJSON)
	if err != nil {
		return nil, err
	}
	st := obs.NewStreamer(f, 0)
	if ospec.window > 0 {
		st.AccumulateWindows(ospec.window)
	}
	rec.SetStream(st)
	return &traceStream{st, f}, nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// export writes the requested artifacts from a finished run: the Perfetto
// trace (batch, or closing the incremental stream), the metrics pair
// (JSON + CSV), the windowed telemetry and the critical-path report.
func (ospec obsSpec) export(rec *obs.Recorder, st *traceStream, makespan float64) error {
	if ospec.traceJSON != "" && st == nil {
		if err := writeFile(ospec.traceJSON, func(w io.Writer) error {
			return obs.WriteTraceJSON(w, rec)
		}); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (open in ui.perfetto.dev)\n", ospec.traceJSON)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			return err
		}
		fmt.Printf("trace streamed to %s: %d spans flushed, peak %d in ring (%d overflow flushes)\n",
			ospec.traceJSON, st.Flushed(), st.PeakPending(), st.OverflowFlushes())
	}
	if ospec.metricsOut != "" {
		m := obs.ComputeMetrics(rec, makespan)
		if err := writeFile(ospec.metricsOut+".metrics.json", m.WriteJSON); err != nil {
			return err
		}
		if err := writeFile(ospec.metricsOut+".metrics.csv", m.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s.metrics.{json,csv}\n", ospec.metricsOut)
	}
	var cp *obs.CPReport
	if ospec.critPath || (ospec.window > 0 && st == nil) {
		cp = obs.CriticalPath(rec)
	}
	if ospec.window > 0 {
		var wm *obs.WindowedMetrics
		if st != nil {
			wm = st.Windows(makespan)
		} else {
			wm = obs.ComputeWindows(rec, ospec.window, makespan, cp)
		}
		wm.Fprint(os.Stdout, 12)
		if ospec.metricsOut != "" {
			if err := writeFile(ospec.metricsOut+".windows.json", wm.WriteJSON); err != nil {
				return err
			}
			if err := writeFile(ospec.metricsOut+".windows.csv", wm.WriteCSV); err != nil {
				return err
			}
			fmt.Printf("windowed metrics written to %s.windows.{json,csv}\n", ospec.metricsOut)
		}
	}
	if ospec.critPath && cp != nil {
		cp.Fprint(os.Stdout, 10)
	}
	return nil
}

// faultSpec collects the fault-injection flags.
type faultSpec struct {
	drop     float64
	dropLink string
	crash    string
	slow     string
	seed     int64
	ft       bool
}

// adaptSpec collects the partitioning flags: the static speed balance and
// the live-decomposition controller.
type adaptSpec struct {
	balance    bool
	on         bool
	interval   int
	hysteresis float64
}

// parseWindow splits a "from:until" window, where until may be "inf".
func parseWindow(spec, window string) (from, until float64, err error) {
	fromStr, untilStr, ok := strings.Cut(window, ":")
	if !ok {
		return 0, 0, fmt.Errorf("spec %q: want from:until", spec)
	}
	if from, err = strconv.ParseFloat(fromStr, 64); err != nil {
		return 0, 0, fmt.Errorf("spec %q: bad start time: %w", spec, err)
	}
	until = math.Inf(1)
	if untilStr != "inf" {
		if until, err = strconv.ParseFloat(untilStr, 64); err != nil {
			return 0, 0, fmt.Errorf("spec %q: bad end time: %w", spec, err)
		}
	}
	return from, until, nil
}

// plan compiles the flags into a vgrid fault plan (nil when no fault was
// requested).
func (fs faultSpec) plan() (*vgrid.FaultPlan, error) {
	if fs.drop == 0 && fs.crash == "" && fs.slow == "" {
		return nil, nil
	}
	fp := vgrid.NewFaultPlan(fs.seed)
	if fs.drop > 0 {
		fp.DropOnLink(fs.dropLink, 0, math.Inf(1), fs.drop)
	}
	for _, spec := range strings.Split(fs.crash, ",") {
		if spec == "" {
			continue
		}
		host, window, ok := strings.Cut(spec, "@")
		if !ok {
			return nil, fmt.Errorf("crash spec %q: want host@from:until", spec)
		}
		from, until, err := parseWindow(spec, window)
		if err != nil {
			return nil, fmt.Errorf("crash %w", err)
		}
		fp.CrashHost(host, from, until)
	}
	for _, spec := range strings.Split(fs.slow, ",") {
		if spec == "" {
			continue
		}
		host, rest, ok := strings.Cut(spec, "@")
		if !ok {
			return nil, fmt.Errorf("slow spec %q: want host@from:until:factor", spec)
		}
		window, factorStr, ok := cutLast(rest, ":")
		if !ok {
			return nil, fmt.Errorf("slow spec %q: want host@from:until:factor", spec)
		}
		factor, err := strconv.ParseFloat(factorStr, 64)
		if err != nil {
			return nil, fmt.Errorf("slow spec %q: bad factor: %w", spec, err)
		}
		from, until, err := parseWindow(spec, window)
		if err != nil {
			return nil, fmt.Errorf("slow %w", err)
		}
		fp.DegradeHost(host, from, until, factor)
	}
	return fp, nil
}

// cutLast splits s around the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

func run(matrixPath, rhsPath string, procs, overlap int, async, topo, gateway bool, schemeName, solverName, clusterTyp string, synth synthSpec, tol float64, cond, trace bool, workers, lanes int, outPath string, faults faultSpec, ospec obsSpec, ts core.TwoStage, ad adaptSpec) error {
	a, err := mmio.ReadMatrixAuto(matrixPath)
	if err != nil {
		return err
	}
	if a.Rows != a.Cols {
		return fmt.Errorf("matrix is %dx%d, need square", a.Rows, a.Cols)
	}
	if cond {
		var cc vec.Counter
		f, err := (&splu.SparseLU{}).Factor(a, &cc)
		if err != nil {
			return fmt.Errorf("condition estimate: %w", err)
		}
		fmt.Printf("estimated condition number kappa_1(A) ~ %.3e\n", splu.CondEst1(a, f, &cc))
	}
	var b []float64
	manufactured := false
	if rhsPath != "" {
		f, err := os.Open(rhsPath)
		if err != nil {
			return err
		}
		b, err = mmio.ReadVector(f)
		f.Close()
		if err != nil {
			return err
		}
		if len(b) != a.Rows {
			return fmt.Errorf("rhs has %d entries, matrix has %d rows", len(b), a.Rows)
		}
	} else {
		manufactured = true
		ones := make([]float64, a.Rows)
		vec.Fill(ones, 1)
		b = make([]float64, a.Rows)
		var c vec.Counter
		a.MulVec(b, ones, &c)
	}

	var scheme core.WeightScheme
	switch schemeName {
	case "owner":
		scheme = core.WeightOwner
	case "average":
		scheme = core.WeightAverage
	default:
		return fmt.Errorf("unknown scheme %q", schemeName)
	}
	var solver splu.Direct
	switch solverName {
	case "sparse":
		solver = &splu.SparseLU{}
	case "dense":
		solver = splu.DenseSolver{}
	case "band":
		solver = splu.BandSolver{Reorder: true}
	default:
		return fmt.Errorf("unknown solver %q", solverName)
	}
	var plt *cluster.Platform
	switch {
	case synth.hosts > 0:
		if synth.clusters < 1 || synth.clusters > synth.hosts {
			return fmt.Errorf("generated grid: %d clusters for %d hosts", synth.clusters, synth.hosts)
		}
		if synth.het < 0 || synth.het >= 1 {
			return fmt.Errorf("generated grid: heterogeneity %g outside [0, 1)", synth.het)
		}
		plt = cluster.Synthetic(synth.hosts, synth.clusters, synth.het, synth.seed)
		clusterTyp = fmt.Sprintf("synthetic(%d hosts, %d clusters)", synth.hosts, synth.clusters)
	default:
		switch clusterTyp {
		case "cluster1":
			if procs < 1 || procs > 20 {
				return fmt.Errorf("cluster1 has 1..20 machines, asked for %d", procs)
			}
			plt = cluster.Cluster1(procs, -1)
		case "cluster2":
			plt = cluster.Cluster2(-1)
		case "cluster3":
			plt = cluster.Cluster3(-1)
		default:
			return fmt.Errorf("unknown cluster %q", clusterTyp)
		}
	}
	hosts := plt.Hosts
	if procs < len(hosts) {
		hosts = hosts[:procs]
	}
	if len(hosts) > a.Rows {
		hosts = hosts[:a.Rows]
	}

	e := vgrid.NewEngine(plt.Platform)
	if workers > 0 {
		e.SetWorkers(workers)
	}
	if lanes != 1 {
		e.SetLanes(lanes)
	}
	plan, err := faults.plan()
	if err != nil {
		return err
	}
	if plan != nil {
		e.SetFaultPlan(plan)
		fmt.Printf("fault injection: seed %d, drop %.3g on %q, crash schedule %q, slowdown schedule %q, fault-tolerant %v\n",
			faults.seed, faults.drop, faults.dropLink, faults.crash, faults.slow, faults.ft)
	}
	var rec *vgrid.Recorder
	if trace {
		rec = &vgrid.Recorder{}
		e.Record(rec)
	}
	var orec *obs.Recorder
	var stream *traceStream
	if ospec.enabled() {
		orec = &obs.Recorder{}
		e.Observe(orec)
		if stream, err = ospec.attach(orec); err != nil {
			return err
		}
	}
	if ospec.window > 0 {
		e.SetLaneTelemetry(ospec.window)
	}
	pend, err := core.Launch(e, hosts, a, b, core.Options{
		Overlap:         overlap,
		Scheme:          scheme,
		Solver:          solver,
		Tol:             tol,
		Async:           async,
		TopoCollectives: topo,
		Gateway:         gateway,
		FaultTolerant:   faults.ft,
		TwoStage:        ts,
		Balance:         ad.balance,
		Adapt:           ad.on,
		AdaptInterval:   ad.interval,
		AdaptHysteresis: ad.hysteresis,
	})
	if err != nil {
		return err
	}
	if _, err := e.Run(); err != nil {
		pend.Finish()
		return err
	}
	pend.Finish()
	if orec != nil {
		// Export before the convergence verdict: a stalled run is exactly
		// the kind the profile should explain.
		if err := ospec.export(orec, stream, e.Now()); err != nil {
			return err
		}
	}
	if lt := e.LaneTelemetry(); len(lt) > 0 {
		fmt.Printf("lane telemetry: %d windows (width %g)\n", len(lt), ospec.window)
		for i, ls := range lt {
			if i == 12 {
				fmt.Printf("  ... %d more windows\n", len(lt)-i)
				break
			}
			fmt.Printf("  w%-3d occupancy %.3f  wan-turns %d  grant-wait %.4fs  inbox %d\n",
				ls.W, ls.Occupancy, ls.WanTurns, ls.WanGrantWait, ls.InboxDepth)
		}
		if ospec.metricsOut != "" {
			if err := writeFile(ospec.metricsOut+".lanes.json", func(w io.Writer) error {
				return vgrid.WriteLaneTelemetryJSON(w, lt)
			}); err != nil {
				return err
			}
			fmt.Printf("lane telemetry written to %s.lanes.json\n", ospec.metricsOut)
		}
	}
	res := pend.Result()
	if !res.Converged {
		return core.ErrNoConvergence
	}

	mode := "synchronous"
	if async {
		mode = "asynchronous"
	}
	switch {
	case topo && gateway:
		mode += ", topo collectives, gateway exchange"
	case topo:
		mode += ", topo collectives"
	case gateway:
		mode += ", gateway exchange"
	}
	fmt.Printf("solved n=%d nnz=%d on %d processors (%s, %s weights, %s solver, overlap %d)\n",
		a.Rows, a.NNZ(), len(hosts), mode, schemeName, solverName, overlap)
	steps := 0
	for _, it := range res.IterationsPerRank {
		steps += it
	}
	fmt.Printf("virtual time %.4fs (factorization %.4fs), iterations %d (%d of %d band steps idle), traffic %d bytes in %d messages\n",
		res.Time, res.FactorTime, res.Iterations, res.IdleSteps, steps, res.BytesSent, res.MsgsSent)
	if res.InnerSweeps > 0 {
		fmt.Printf("two-stage: %d inner sweeps (%s schedule, omega %g, band %d), %.3g inner flops vs %.3g factor flops, %d fallbacks\n",
			res.InnerSweeps, ts.Schedule, ts.Omega, ts.PrecondBand, res.InnerFlops, res.FactorFlops, res.TwoStageFallbacks)
	}
	fmt.Printf("cluster traffic: intra %d bytes in %d messages, inter %d bytes in %d messages\n",
		res.IntraBytes, res.IntraMsgs, res.InterBytes, res.InterMsgs)
	if ad.on {
		fmt.Printf("resplits: %d applied, %d rejected by safety check, %.3g transition flops\n",
			res.Resplits, res.ResplitRejected, res.ResplitFlops)
		for _, ev := range res.ResplitEvents {
			fmt.Printf("  iter %-5d t=%.4fs  max band delta %d rows, overlap %d\n",
				ev.Iter, ev.Time, ev.MaxDelta, ev.Overlap)
		}
	}

	// Report the achieved quality.
	y := make([]float64, a.Rows)
	var c vec.Counter
	a.MulVec(y, res.X, &c)
	resid := 0.0
	for i := range y {
		if d := math.Abs(y[i] - b[i]); d > resid {
			resid = d
		}
	}
	fmt.Printf("residual ‖Ax−b‖∞ = %.3e\n", resid)
	if manufactured {
		worst := 0.0
		for _, v := range res.X {
			if d := math.Abs(v - 1); d > worst {
				worst = d
			}
		}
		fmt.Printf("error vs exact all-ones solution: %.3e\n", worst)
	}
	if trace {
		fmt.Println("\nper-processor activity timeline (event density over virtual time):")
		if err := rec.WriteTimeline(os.Stdout, 64); err != nil {
			return err
		}
	}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := mmio.WriteVector(f, res.X); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("solution written to %s\n", outPath)
	}
	return nil
}
