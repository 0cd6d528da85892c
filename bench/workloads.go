package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/vgrid"
)

// residualLimit is the largest true relative residual ‖Ax−b‖∞/‖b‖∞ a solve
// may return; every solver workload iterates to Tol = 1e-8.
const residualLimit = 1e-6

// windowWidth is the virtual-time window of the observed workload's metrics.
const windowWidth = 0.05

// instance is one seed-derived set of inputs of a workload. A run averages
// over workload.instances of them, because iteration counts and LU fill vary
// from one generated matrix to the next: virt_makespan_s by 1.5 to 5% (one
// standard deviation, README "Observed spread"). The counts are set so that
// its spread across ten seeds stays below a third of its bound.
type instance struct {
	seed int64
	genS float64 // host seconds the generator spent on the matrix

	// Solver workloads, and paper_table3's layer probes: the system, the
	// platform, and one core.Options per solve of a repetition.
	a      *sparse.CSR
	b      []float64
	resid  []float64 // scratch of the residual check
	plat   func() *cluster.Platform
	solves []core.Options

	// Grid workloads: a ring of rounds messages over a synthetic platform.
	hosts, clusters, rounds int

	// paper_table3.
	cfg experiments.Config
}

// repOpts selects how one repetition runs.
type repOpts struct {
	sp      *spanRec // nil: tracing off
	workers int      // 0: the engine default, GOMAXPROCS
	observe bool     // solver workloads: attach an obs.Recorder to every solve
}

// outcome is what one repetition returns: the timed part's host time, the
// simulated time to a solution, a digest of the simulated statistics, and
// the counts made at the layer boundaries, by per-layer metric name.
type outcome struct {
	wall      time.Duration
	virt      float64
	digest    uint64
	counts    map[string]float64
	rankIters []int           // solver workloads: iterations per rank, summed over the solves
	recs      []*obs.Recorder // with repOpts.observe
}

// workload is one set of inputs the benchmark runs as a closed loop with one
// client: the next repetition starts when the previous one has returned.
type workload struct {
	name      string
	why       string // from BENCHMARK.json (loadContract)
	instances int
	gen       func(seed int64, scale int) *instance
	rep       func(in *instance, o repOpts) (outcome, error)
	probe     func(in *instance, pc *probeCtx) error
}

var workloads = []*workload{
	{
		name:      "lan_sync_wideband",
		instances: 10,
		gen: solverGen(func(seed int64, scale int) *sparse.CSR {
			// The margin grows with the shrink factor: bands 1/16 the size
			// would otherwise need ten times the iterations.
			return gen.DiagDominant(gen.DiagDominantOpts{N: 10000 / scale, Band: 120, PerRow: 10, Margin: 0.002 * float64(scale), Negative: true, Seed: seed})
		}, func() *cluster.Platform { return cluster.Cluster1(8, -1) },
			core.Options{Tol: 1e-8, Overlap: 40}),
		rep: solverRep,
		probe: func(in *instance, pc *probeCtx) error {
			if err := solverProbes(in, pc); err != nil {
				return err
			}
			return seqBaselineProbe(in, pc)
		},
	},
	{
		name:      "wan_async_narrowband",
		instances: 24,
		gen: solverGen(func(seed int64, scale int) *sparse.CSR {
			return gen.DiagDominant(gen.DiagDominantOpts{N: 20000 / scale, Band: 12, PerRow: 7, Seed: seed})
		}, func() *cluster.Platform { return cluster.Cluster3(-1) },
			core.Options{Tol: 1e-8, Async: true}),
		rep:   solverRep,
		probe: solverProbes,
	},
	{
		name:      "wan_async_twostage",
		instances: 12,
		gen: solverGen(func(seed int64, scale int) *sparse.CSR {
			return gen.DiagDominant(gen.DiagDominantOpts{N: 12000 / scale, Band: 220, PerRow: 10, Negative: true, Seed: seed})
		}, func() *cluster.Platform { return cluster.Cluster3(-1) },
			core.Options{Tol: 1e-8, Async: true, TwoStage: core.TwoStage{InnerIters: 4, PrecondBand: 16}}),
		rep:   solverRep,
		probe: solverProbes,
	},
	{
		name:      "wan_cage_exchange",
		instances: 16,
		gen: solverGen(func(seed int64, scale int) *sparse.CSR {
			// Ten ranks need a few rows each, whatever the scale.
			return gen.CageLike(max(178/scale, 40), seed)
		}, func() *cluster.Platform { return cluster.Cluster3(-1) },
			core.Options{}, core.Options{Gateway: true, TopoCollectives: true}, core.Options{Async: true}),
		rep:   solverRep,
		probe: solverProbes,
	},
	{
		name:      "grid1000_events",
		instances: 4,
		gen:       gridGen(34),
		rep:       gridEventsRep,
		probe:     gridEventsProbes,
	},
	{
		name:      "grid1000_observed",
		instances: 5,
		gen:       gridGen(11),
		rep:       gridObservedRep,
		probe:     gridObservedProbes,
	},
	{
		name:      "paper_table3",
		instances: 1,
		gen:       table3Gen,
		rep:       table3Rep,
		probe:     table3Probes,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- Solver workloads.

// solverGen builds the generator of a solver workload: the seeded matrix, a
// manufactured right-hand side, and the solves of one repetition.
func solverGen(matrix func(seed int64, scale int) *sparse.CSR, plat func() *cluster.Platform, solves ...core.Options) func(int64, int) *instance {
	return func(seed int64, scale int) *instance {
		t0 := time.Now()
		a := matrix(seed, scale)
		genS := time.Since(t0).Seconds()
		b, _ := gen.RHSForSolution(a)
		return &instance{seed: seed, genS: genS, a: a, b: b, resid: make([]float64, a.Rows), plat: plat, solves: solves}
	}
}

// relResidual recomputes ‖Ax−b‖∞/‖b‖∞ with the benchmark's own SpMV.
func relResidual(in *instance, x []float64) float64 {
	in.a.MulVec(in.resid, x, nil)
	num, den := 0.0, 0.0
	for i, v := range in.resid {
		num = math.Max(num, math.Abs(v-in.b[i]))
		den = math.Max(den, math.Abs(in.b[i]))
	}
	if den == 0 {
		return num
	}
	return num / den
}

// solverRep runs the instance's solves, each on a fresh platform and engine,
// timing from platform construction to the assembled result. Convergence,
// the true residual and the digest are checked outside the timed part.
func solverRep(in *instance, o repOpts) (outcome, error) {
	out := outcome{counts: map[string]float64{}}
	h := fnv.New64a()
	for i, opt := range in.solves {
		t0 := time.Now()
		root := o.sp.start("solve", 0)
		s := o.sp.start("vgrid.platform_build", root)
		plt := in.plat()
		o.sp.end(s)
		e := vgrid.NewEngine(plt.Platform)
		if o.workers > 0 {
			e.SetWorkers(o.workers)
		}
		if o.observe {
			rec := &obs.Recorder{}
			e.Observe(rec)
			out.recs = append(out.recs, rec)
		}
		s = o.sp.start("core.launch", root)
		pend, err := core.Launch(e, plt.Hosts, in.a, in.b, opt)
		o.sp.end(s)
		if err != nil {
			return out, fmt.Errorf("solve %d: launch: %w", i, err)
		}
		s = o.sp.start("core.run", root)
		_, err = e.Run()
		o.sp.end(s)
		if err != nil {
			return out, fmt.Errorf("solve %d: run: %w", i, err)
		}
		s = o.sp.start("core.finish", root)
		pend.Finish()
		res := pend.Result()
		o.sp.end(s)
		o.sp.end(root)
		out.wall += time.Since(t0)

		if !res.Converged {
			return out, fmt.Errorf("solve %d: did not converge in %d iterations", i, res.Iterations)
		}
		if r := relResidual(in, res.X); !(r <= residualLimit) {
			return out, fmt.Errorf("solve %d: residual %.3g exceeds %.0e", i, r, residualLimit)
		}
		commits, syncs := e.EventStats()
		fmt.Fprintf(h, "%x %v %d %d %x %d|", math.Float64bits(res.Time), res.IterationsPerRank,
			res.MsgsSent, res.BytesSent, math.Float64bits(res.TotalFlops), commits)

		out.virt += res.Time
		if out.rankIters == nil {
			out.rankIters = make([]int, len(res.IterationsPerRank))
		}
		for r, it := range res.IterationsPerRank {
			out.rankIters[r] += it
		}
		c := out.counts
		c["core.iterations"] += float64(res.Iterations)
		c["core.factor_virt_s"] += res.FactorTime
		c["iterative.inner_sweeps"] += float64(res.InnerSweeps)
		c["mp.msgs"] += float64(res.MsgsSent)
		c["mp.bytes"] += float64(res.BytesSent)
		c["mp.inter_msgs"] += float64(res.InterMsgs)
		c["mp.inter_bytes"] += float64(res.InterBytes)
		addEngineCounts(c, e, commits, syncs)
	}
	out.digest = h.Sum64()
	return out, nil
}

// addEngineCounts adds an engine's scheduler and per-process accounting.
func addEngineCounts(c map[string]float64, e *vgrid.Engine, commits, syncs int64) {
	c["vgrid.commits"] += float64(commits)
	c["vgrid.syncs"] += float64(syncs)
	c["vgrid.lanes"] = math.Max(c["vgrid.lanes"], float64(e.Lanes()))
	c["vgrid.workers"] = float64(e.Workers())
	for _, st := range e.Stats() {
		c["vgrid.compute_virt_s"] += st.ComputeTime
		c["vgrid.blocked_virt_s"] += st.BlockedTime
	}
}

// --- Grid workloads.

func gridGen(rounds int) func(int64, int) *instance {
	return func(seed int64, scale int) *instance {
		return &instance{seed: seed, hosts: 1000 / scale, clusters: 100 / scale, rounds: rounds}
	}
}

// spawnRing registers a communication ring over the platform's hosts: every
// round is a compute, a 256-byte send to the next host and a receive from
// the previous one, so each host contributes three scheduler commit points
// per round and the per-event work stays trivial.
func spawnRing(e *vgrid.Engine, plt *cluster.Platform, rounds int) {
	n := len(plt.Hosts)
	procs := make([]*vgrid.Proc, n)
	for i := range procs {
		procs[i] = e.Spawn(plt.Hosts[i], fmt.Sprintf("ring%d", i), func(p *vgrid.Proc) error {
			next, prev := procs[(i+1)%n], (i+n-1)%n
			for r := 0; r < rounds; r++ {
				// Spread the compute costs so next-event keys interleave
				// across hosts instead of marching in lockstep.
				p.Compute(1e5 * float64(1+(i*31+r*17)%97))
				if err := p.Send(next, r, nil, 256); err != nil {
					return err
				}
				p.Recv(prev, r)
			}
			return nil
		})
	}
}

// ringRun builds a fresh synthetic platform and engine, runs the ring and
// returns the engine and the virtual makespan; Engine.Run is the span
// runSpan. attach, when non-nil, sees the engine before the ring is spawned.
func ringRun(in *instance, o repOpts, parent, lanes int, runSpan string, attach func(*vgrid.Engine)) (*vgrid.Engine, float64, error) {
	s := o.sp.start("vgrid.platform_build", parent)
	plt := cluster.Synthetic(in.hosts, in.clusters, 0.3, in.seed)
	o.sp.end(s)
	e := vgrid.NewEngine(plt.Platform)
	e.SetLanes(lanes)
	if o.workers > 0 {
		e.SetWorkers(o.workers)
	}
	if attach != nil {
		attach(e)
	}
	spawnRing(e, plt, in.rounds)
	s = o.sp.start(runSpan, parent)
	vt, err := e.Run()
	o.sp.end(s)
	return e, vt, err
}

// ringDigest hashes a ring run's simulated statistics.
func ringDigest(h io.Writer, e *vgrid.Engine, vt float64, commits int64) {
	var flops float64
	var msgs, bytes int64
	for _, st := range e.Stats() {
		flops += st.Flops
		msgs += st.MsgsSent
		bytes += st.BytesSent
	}
	fmt.Fprintf(h, "%x %d %x %d %d|", math.Float64bits(vt), commits, math.Float64bits(flops), msgs, bytes)
}

// gridEventsRep runs the ring with the recorder off, once on a single
// scheduler lane and once with one lane per cluster. The two runs must agree
// on the virtual makespan and the commit count.
func gridEventsRep(in *instance, o repOpts) (outcome, error) {
	out := outcome{counts: map[string]float64{}}
	h := fnv.New64a()
	var vts [2]float64
	var cms [2]int64
	for i, cfg := range []struct {
		lanes int
		span  string
	}{{1, "single"}, {0, "sharded"}} {
		t0 := time.Now()
		root := o.sp.start("ring_"+cfg.span, 0)
		e, vt, err := ringRun(in, o, root, cfg.lanes, "vgrid.run_"+cfg.span, nil)
		o.sp.end(root)
		out.wall += time.Since(t0)
		if err != nil {
			return out, fmt.Errorf("lanes=%d: %w", cfg.lanes, err)
		}
		commits, syncs := e.EventStats()
		vts[i], cms[i] = vt, commits
		ringDigest(h, e, vt, commits)
		out.virt += vt
		addEngineCounts(out.counts, e, commits, syncs)
	}
	if vts[0] != vts[1] || cms[0] != cms[1] {
		return out, fmt.Errorf("lane counts disagree: virtual time %g vs %g, commits %d vs %d", vts[0], vts[1], cms[0], cms[1])
	}
	out.digest = h.Sum64()
	return out, nil
}

// countWriter discards what it is given and counts the bytes.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// gridObservedRep runs the ring on one lane with the recorder attached and
// exports a full trace plus windowed metrics, once through the retained-span
// batch path and once through the streaming ring. Both paths must write the
// same number of trace and metrics bytes.
func gridObservedRep(in *instance, o repOpts) (outcome, error) {
	out := outcome{counts: map[string]float64{}}
	h := fnv.New64a()
	c := out.counts

	// Batch: retain every span, export after the run.
	var batchTrace, batchWin countWriter
	t0 := time.Now()
	root := o.sp.start("obs.batch_total", 0)
	rec := &obs.Recorder{}
	e, vt, err := ringRun(in, o, root, 1, "vgrid.run_observed", func(e *vgrid.Engine) { e.Observe(rec) })
	if err != nil {
		return out, fmt.Errorf("batch: %w", err)
	}
	s := o.sp.start("obs.export_trace", root)
	err = obs.WriteTraceJSON(&batchTrace, rec)
	o.sp.end(s)
	if err != nil {
		return out, fmt.Errorf("batch: trace export: %w", err)
	}
	s = o.sp.start("obs.windows", root)
	wm := obs.ComputeWindows(rec, windowWidth, vt, nil)
	o.sp.end(s)
	if err := wm.WriteJSON(&batchWin); err != nil {
		return out, fmt.Errorf("batch: metrics export: %w", err)
	}
	o.sp.end(root)
	out.wall += time.Since(t0)
	commits, syncs := e.EventStats()
	ringDigest(h, e, vt, commits)
	out.virt += vt
	addEngineCounts(c, e, commits, syncs)
	c["obs.spans"] = float64(rec.NumSpans())
	c["obs.peak_spans_batch"] = float64(rec.NumSpans())
	c["obs.trace_bytes"] = float64(batchTrace.n)

	// Streaming: the default bounded ring, windows fed from the flush path.
	var streamTrace, streamWin countWriter
	t0 = time.Now()
	root = o.sp.start("obs.stream_total", 0)
	rec = &obs.Recorder{}
	st := obs.NewStreamer(&streamTrace, 0)
	st.AccumulateWindows(windowWidth)
	e, vt2, err := ringRun(in, o, root, 1, "vgrid.run_observed", func(e *vgrid.Engine) {
		e.Observe(rec)
		rec.SetStream(st)
	})
	if err != nil {
		return out, fmt.Errorf("stream: %w", err)
	}
	if err := st.Close(); err != nil {
		return out, fmt.Errorf("stream: close: %w", err)
	}
	if err := st.Windows(vt2).WriteJSON(&streamWin); err != nil {
		return out, fmt.Errorf("stream: metrics export: %w", err)
	}
	o.sp.end(root)
	out.wall += time.Since(t0)
	commits, syncs = e.EventStats()
	ringDigest(h, e, vt2, commits)
	out.virt += vt2
	addEngineCounts(c, e, commits, syncs)
	c["obs.peak_spans_stream"] = float64(st.PeakPending())
	c["obs.stream_overflow_flushes"] = float64(st.OverflowFlushes())

	if vt != vt2 || batchTrace.n != streamTrace.n || batchWin.n != streamWin.n {
		return out, fmt.Errorf("export paths disagree: virtual time %g vs %g, trace bytes %d vs %d, metrics bytes %d vs %d",
			vt, vt2, batchTrace.n, streamTrace.n, batchWin.n, streamWin.n)
	}
	fmt.Fprintf(h, "%d %d %d", batchTrace.n, batchWin.n, st.Flushed())
	out.digest = h.Sum64()
	return out, nil
}

// --- paper_table3.

// table3Gen keeps the experiment configuration, and the cage11 system on
// cluster2 (the table's first row) as the input of the layer probes. The
// table's matrices are the paper's fixed stand-ins: the seed does not apply.
func table3Gen(seed int64, scale int) *instance {
	cfg := experiments.Config{Scale: 64 * scale}
	in := solverGen(func(int64, int) *sparse.CSR { return experiments.Cage11Like(cfg) },
		func() *cluster.Platform { return cluster.Cluster2(-1) }, core.Options{})(seed, scale)
	in.cfg = cfg
	return in
}

// table3Rep regenerates the paper's Table 3. The simulated time is the sum
// of the table's numeric cells; the digest is its CSV.
func table3Rep(in *instance, o repOpts) (outcome, error) {
	out := outcome{counts: map[string]float64{}}
	cfg := in.cfg
	cfg.Workers = o.workers
	t0 := time.Now()
	s := o.sp.start("experiments.table3", 0)
	tab, err := experiments.Table3(cfg)
	o.sp.end(s)
	out.wall += time.Since(t0)
	if err != nil {
		return out, err
	}
	if len(tab.Rows) != 3 || len(tab.Rows[1]) < 3 || tab.Rows[1][2] != "nem" {
		return out, errors.New("table 3 lost its cage12 'nem' cell for the distributed baseline")
	}
	for _, row := range tab.Rows {
		for _, cell := range row[2:] {
			if v, err := strconv.ParseFloat(cell, 64); err == nil {
				out.virt += v
			} else if cell != "nem" {
				return out, fmt.Errorf("table 3 cell %q is neither a time nor 'nem'", cell)
			}
		}
	}
	var csv bytes.Buffer
	if err := tab.CSV(&csv); err != nil {
		return out, err
	}
	h := fnv.New64a()
	h.Write(csv.Bytes())
	out.digest = h.Sum64()
	return out, nil
}
