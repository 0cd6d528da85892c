// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6): the cluster1 scalability tables (1, 2), the
// distant heterogeneous cluster comparison (Table 3), the network
// perturbation study (Table 4) and the overlap sweep (Figure 3).
//
// Matrix sizes are divided by Config.Scale so a full regeneration runs in
// seconds to minutes; Scale 1 uses the paper's exact dimensions (feasible
// for the generated banded matrices, prohibitive for the near-dense
// cage-like factorizations — see EXPERIMENTS.md). Every solve is verified
// against a manufactured true solution; cells are marked when verification
// fails.
package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dslu"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// Config controls an experiment run.
type Config struct {
	// Scale divides the paper's matrix dimensions (default 16).
	Scale int
	// Progress, when non-nil, receives per-run progress lines.
	Progress io.Writer
	// Workers bounds each engine's worker-thread pool for the compute
	// segments of the simulated solver ranks (0 = GOMAXPROCS), not how many
	// runs go side by side. Results are identical for any value — only
	// wall-clock time changes.
	Workers int
	// TraceJSON, when non-empty, makes observability-aware experiments (the
	// utilization table) write a Perfetto trace per run to
	// <TraceJSON>-<cluster>-<solver>.json.
	TraceJSON string
	// MetricsOut, when non-empty, writes per-run metrics to
	// <MetricsOut>-<cluster>-<solver>.metrics.{json,csv}.
	MetricsOut string
	// CriticalPath adds each run's top critical-path segments to the
	// utilization table's notes.
	CriticalPath bool
	// Window overrides the windowed-utilization experiment's virtual-time
	// window width in seconds (0 auto-sizes to 1/8 of the clean makespan).
	Window float64
}

func (c Config) scale() int {
	if c.Scale < 1 {
		return 16
	}
	return c.Scale
}

func (c Config) logf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// Table is a formatted experiment result.
type Table struct {
	// ID names the table the way the paper does ("Table 1", "Figure 3").
	ID string
	// Title describes the workload: platform, matrix, scale.
	Title string
	// Header holds the column names.
	Header []string
	// Rows holds the formatted cells, one slice per row, aligned with Header.
	Rows [][]string
	// Notes are free-form lines printed under the table (not part of the CSV).
	Notes []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], cell)
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(line(t.Header)))); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV renders the table as comma-separated values (for plotting Figure 3).
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Header, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// --- Workload matrices (paper Section 6, scaled).

// Cage10Like returns the cage10 stand-in (n = 11397/scale).
func Cage10Like(cfg Config) *sparse.CSR { return gen.CageLike(11397/cfg.scale(), 1010) }

// Cage11Like returns the cage11 stand-in (n = 39082/scale).
func Cage11Like(cfg Config) *sparse.CSR { return gen.CageLike(39082/cfg.scale(), 1011) }

// Cage12Like returns the cage12 stand-in (n = 130228/scale).
func Cage12Like(cfg Config) *sparse.CSR { return gen.CageLike(130228/cfg.scale(), 1012) }

// Gen500k returns the paper's generated diagonally dominant matrix of
// degree 500000 (scaled).
func Gen500k(cfg Config) *sparse.CSR {
	return gen.DiagDominant(gen.DiagDominantOpts{
		N: 500000 / cfg.scale(), Band: 12, PerRow: 7, Margin: 0.4, Seed: 500,
	})
}

// Gen100k returns the generated matrix of degree 100000 whose spectral
// radius is close to 1 (the Figure 3 matrix): wide local single-sign
// couplings and a tiny dominance margin put the band splittings in the
// Schwarz regime, where overlap meaningfully trades iteration count against
// factorization cost. The coupling width scales with the matrix so the
// overlap-to-band ratios (and hence iteration counts) are scale-invariant.
func Gen100k(cfg Config) *sparse.CSR {
	n := 100000 / cfg.scale()
	band := 960 / cfg.scale()
	if band < 4 {
		band = 4
	}
	return gen.DiagDominant(gen.DiagDominantOpts{
		N: n, Band: band, PerRow: 10, Margin: 0.002, Negative: true, Seed: 100,
	})
}

// fig3SpeedScale preserves the paper's compute-to-communication balance for
// the overlap sweep: per-band factorization work shrinks as scale³ (rows ×
// width²) while network latency is scale-free, so host speed shrinks by the
// same cube. At scale 16 this calibrates the factorization-time curve into
// the paper's 3–10 s range.
func fig3SpeedScale(cfg Config) float64 {
	s := float64(cfg.scale())
	return 40.96 / (s * s * s)
}

// --- The run path: every cell of every table goes through Config.solve.

// cell is the outcome of one solver run: a verified time, or the verdict
// that replaces it in the table.
type cell struct {
	time float64
	// end is the engine's virtual clock when the run stopped, also for a
	// failed run (the windowed telemetry spans the whole simulation).
	end  float64
	ok   bool
	note string
	// fill is the factor entry count of a distributed-LU run (the "nem"
	// budgets are calibrated on it).
	fill int64
}

func (c cell) timeStr() string {
	if !c.ok {
		return c.note
	}
	return fmtSec(c.time)
}

func fmtSec(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	default:
		return fmt.Sprintf("%.3f", s)
	}
}

// relResidual returns ‖Ax − b‖∞ / ‖b‖∞.
func relResidual(a *sparse.CSR, x, b []float64) float64 {
	var c vec.Counter
	y := make([]float64, len(b))
	a.MulVec(y, x, &c)
	num, den := 0.0, 0.0
	for i := range y {
		if d := math.Abs(y[i] - b[i]); d > num {
			num = d
		}
		if d := math.Abs(b[i]); d > den {
			den = d
		}
	}
	if den == 0 {
		return num
	}
	return num / den
}

// residualGate marks a cell bad when the solve did not actually solve.
const residualGate = 1e-4

// probeFill runs the distributed solver without memory limits and returns
// its total factor fill (used to self-calibrate the "nem" budgets).
func (c Config) probeFill(plt *cluster.Platform, a *sparse.CSR, b []float64) (int64, error) {
	d, _, err := c.solve(plt, a, b, runSpec{dslu: true})
	if err == nil && !d.ok {
		err = probeFailed(d)
	}
	return d.fill, err
}

// probeFailed is the error of a fill probe whose run did not verify: a budget
// extrapolated from its fill would be meaningless.
func probeFailed(d cell) error { return fmt.Errorf("experiments: fill probe: %s", d.note) }

// runSpec is everything that distinguishes one solver run from another: the
// solver and its options, and what is attached to the engine it runs on.
type runSpec struct {
	// dslu runs the distributed direct baseline instead of multisplitting;
	// of opts it reads TrackMemory only.
	dslu bool
	// opts reaches core.Launch verbatim.
	opts core.Options
	// plan, when non-nil, is the fault plan injected into the run.
	plan *vgrid.FaultPlan
	// flows is the number of background flows perturbing the WAN.
	flows int
	// rec, when non-nil, records the run's spans (obs.Exporting.Rec).
	rec *obs.Recorder
}

// solve is the one run path of the package: it builds the engine, attaches
// the fault plan and the recorder, launches the solver and the background
// flows, runs the simulation and classifies the outcome. The verdict set is
//
//	nem    a host ran out of memory
//	stall  the run deadlocked (a blocking exchange lost a message)
//	dead   the fault-tolerant dead-rank detection fired
//	err    any other run-time failure
//	div    no convergence within the iteration budget
//	bad(r) the returned x fails the residual gate with relative residual r
//
// and the cause of the first four goes to Config.Progress. A solver that
// rejects its input or options before any virtual time is spent is not a
// verdict: that error is returned and fails the experiment. The
// multisplitting result is returned for every launched run (nil for dslu).
func (c Config) solve(plt *cluster.Platform, a *sparse.CSR, b []float64, s runSpec) (cell, *core.Result, error) {
	e := vgrid.NewEngine(plt.Platform)
	if c.Workers > 0 {
		e.SetWorkers(c.Workers)
	}
	if s.plan != nil {
		e.SetFaultPlan(s.plan)
	}
	if s.rec != nil {
		e.Observe(s.rec)
	}
	// Both solvers hand back a pending run with these two methods; only
	// their result types differ.
	var pend interface {
		Running() bool
		Finish()
	}
	var err error
	if s.dslu {
		pend, err = dslu.Launch(e, plt.Hosts, a, b, dslu.Options{TrackMemory: s.opts.TrackMemory})
	} else {
		pend, err = core.Launch(e, plt.Hosts, a, b, s.opts)
	}
	if err != nil {
		return cell{}, nil, fmt.Errorf("experiments: %w", err)
	}
	if s.flows > 0 {
		plt.Perturb(e, s.flows, pend.Running)
	}
	end, err := e.Run()
	pend.Finish()
	var (
		out       = cell{end: end}
		res       *core.Result
		x         []float64
		took      float64
		converged = true
	)
	switch p := pend.(type) {
	case *dslu.Pending:
		r := p.Result()
		x, took, out.fill = r.X, r.Time, r.FillNNZ
	case *core.Pending:
		res = p.Result()
		x, took, converged = res.X, res.Time, res.Converged
	}
	logResplits(c, res)

	switch {
	case errors.Is(err, vgrid.ErrOutOfMemory):
		out.note = "nem"
	case errors.Is(err, vgrid.ErrDeadlock):
		out.note = "stall"
	case errors.Is(err, core.ErrPeerDead):
		out.note = "dead"
	case err != nil:
		out.note = "err"
	case !converged:
		out.note = "div"
	}
	if err != nil {
		c.logf("  run failed (%s): %v", out.note, err)
	}
	if out.note == "" {
		if r := relResidual(a, x, b); r > residualGate {
			out.note = fmt.Sprintf("bad(%.0e)", r)
		} else {
			out.time, out.ok = took, true
		}
	}
	return out, res, nil
}

// job is one run of a solveAll list: the progress line announcing it ("" for
// none), the system it solves, the platform it runs on and what distinguishes
// it.
type job struct {
	what string
	a    *sparse.CSR
	b    []float64
	// plt builds the job's fresh platform as the job starts, from the cell of
	// the job it waits on (the zero cell when it waits on none).
	plt func(dep cell) *cluster.Platform
	// after, when positive, gates the job on job after-1 of the list, an
	// earlier one: the job starts only once that job has ended with a
	// verified cell.
	after int
	spec  runSpec
}

// fixed is the platform builder of a job that waits on no job.
func fixed(newPlat func() *cluster.Platform) func(cell) *cluster.Platform {
	return func(cell) *cluster.Platform { return newPlat() }
}

// cluster3 builds a fresh cluster3 with the default host memory: the
// platform of most jobs.
func cluster3(cell) *cluster.Platform { return cluster.Cluster3(-1) }

// solveAll is an experiment's scheduler: it runs the jobs of one list, each
// through solve on its own engine, with at most GOMAXPROCS in flight, and
// returns their cells and results in list order. Whenever a slot is free it
// starts the first job in list order that is ready — one that waits on no
// job, or whose job has ended — so an independent job overtakes a gated one,
// and with one slot the jobs run in list order. A gated job whose job ended
// without a verified cell never starts: it fails with the fill-probe error.
// A job logs into a buffer of its own, which solveAll writes to Progress once
// every earlier job has finished: the stream is the one of a sequential run.
// The first error in list order fails the list once every job before it has
// finished: no further job starts, no line after the failed job's is
// written, and every started job has finished when solveAll returns.
func (c Config) solveAll(jobs []job) ([]cell, []*core.Result, error) {
	n, limit := len(jobs), runtime.GOMAXPROCS(0)
	cells, results, errs := make([]cell, n), make([]*core.Result, n), make([]error, n)
	logs, started, done := make([]bytes.Buffer, n), make([]bool, n), make([]bool, n)
	finished := make(chan int, n) // the index of each job as it ends
	run := func(i int, plt *cluster.Platform) {
		jc, j := c, &jobs[i]
		jc.Progress = &logs[i]
		if j.what != "" {
			jc.logf("%s", j.what)
		}
		cells[i], results[i], errs[i] = jc.solve(plt, j.a, j.b, j.spec)
		finished <- i
	}
	running, next := 0, 0 // next: the first job whose lines are not written yet
	for {
		for i := next; i < n && running < limit; i++ {
			if started[i] {
				continue
			}
			var dep cell
			if d := jobs[i].after - 1; d >= 0 {
				if d >= i {
					panic(fmt.Sprintf("experiments: job %d waits on job %d, not an earlier one", i, d))
				}
				if !done[d] {
					continue
				}
				if dep = cells[d]; !dep.ok {
					started[i], done[i], errs[i] = true, true, probeFailed(dep)
					continue
				}
			}
			started[i] = true
			running++
			go run(i, jobs[i].plt(dep))
		}
		for ; next < n && done[next]; next++ {
			if c.Progress != nil {
				c.Progress.Write(logs[next].Bytes())
			}
			if errs[next] != nil {
				for ; running > 0; running-- {
					<-finished
				}
				return nil, nil, errs[next]
			}
		}
		if next == n {
			return cells, results, nil
		}
		i := <-finished
		running--
		done[i] = true
	}
}
