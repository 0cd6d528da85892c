package experiments

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/vgrid"
)

// TestRunnerClassification drives the one run path into each verdict of its
// classifier on small inputs and checks that a run-time failure's cause
// reaches Config.Progress.
func TestRunnerClassification(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 1200, Band: 12, PerRow: 7, Seed: 9})
	b, _ := gen.RHSForSolution(a)
	wan := func() *cluster.Platform { return cluster.Cluster3(-1) }
	forever := math.Inf(1)
	for _, tc := range []struct {
		name  string
		cfg   Config
		plt   func() *cluster.Platform
		spec  runSpec
		note  string // "" = a verified time
		cause string // substring of the progress line of a failed run
	}{
		{name: "ok", plt: wan, spec: runSpec{opts: core.Options{Async: true}}},
		{name: "ok-dslu", plt: wan, spec: runSpec{dslu: true}},
		{name: "nem", plt: func() *cluster.Platform { return cluster.Cluster1(4, 4096) },
			spec: runSpec{opts: core.Options{TrackMemory: true}}, note: "nem", cause: "not enough memory"},
		{name: "nem-dslu", plt: func() *cluster.Platform { return cluster.Cluster1(4, 4096) },
			spec: runSpec{dslu: true, opts: core.Options{TrackMemory: true}}, note: "nem", cause: "not enough memory"},
		{name: "stall", plt: wan, note: "stall", cause: "deadlock",
			spec: runSpec{plan: vgrid.NewFaultPlan(1).DropOnLink("wan", 0, forever, 1)}},
		{name: "dead", plt: wan, note: "dead", cause: "appears dead",
			spec: runSpec{opts: core.Options{FaultTolerant: true},
				plan: vgrid.NewFaultPlan(1).CrashHost(faultCrashHost, 0, forever)}},
		{name: "err", plt: wan, note: "err", cause: "unknown host",
			spec: runSpec{plan: vgrid.NewFaultPlan(1).CrashHost("nobody", 0, 1)}},
		{name: "div", plt: wan, spec: runSpec{opts: core.Options{MaxIter: 1}}, note: "div"},
	} {
		var progress bytes.Buffer
		tc.cfg.Progress = &progress
		c, res, err := tc.cfg.solve(tc.plt(), a, b, tc.spec)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if c.note != tc.note || c.ok != (tc.note == "") {
			t.Errorf("%s: verdict %q (ok=%v), want %q", tc.name, c.note, c.ok, tc.note)
		}
		if c.ok && (c.time <= 0 || c.timeStr() != fmtSec(c.time)) {
			t.Errorf("%s: verified cell prints %q for time %g", tc.name, c.timeStr(), c.time)
		}
		if (res == nil) != tc.spec.dslu {
			t.Errorf("%s: multisplitting result %v, want one exactly for a multisplitting run", tc.name, res)
		}
		if !strings.Contains(progress.String(), tc.cause) || (tc.cause == "") != (progress.Len() == 0) {
			t.Errorf("%s: progress %q, want the cause %q", tc.name, progress.String(), tc.cause)
		}
	}
}

// TestRejectedOptionsFailTheExperiment: options the solver refuses before
// spending virtual time are an error of the run path and of the job list an
// experiment hands to it — not a table of "err" cells. (cmd/msexp's
// TestRejectedInputFailsWithoutATable sees a whole experiment fail so.)
func TestRejectedOptionsFailTheExperiment(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 1200, Band: 12, PerRow: 7, Seed: 9})
	b, _ := gen.RHSForSolution(a)
	_, _, err := Config{}.solve(cluster.Cluster3(-1), a, b, runSpec{opts: core.Options{Async: true, BandsPerProc: -1}})
	if err == nil || !strings.Contains(err.Error(), "BandsPerProc -1") {
		t.Errorf("solve with a negative band count: err %v, want the wrapped cause", err)
	}

	// Side by side, a rejected job fails its list the same way: solveAll
	// returns the wrapped cause, has written exactly the lines of the jobs
	// up to and including it (a failed run's cause among them), and no job
	// goroutine outlives the call.
	ok := runSpec{opts: core.Options{Async: true}}
	var progress bytes.Buffer
	base := runtime.NumGoroutine()
	cells, results, err := Config{Progress: &progress}.solveAll([]job{
		{what: "job 0", a: a, b: b, plt: cluster3, spec: ok},
		{what: "job 1", a: a, b: b, plt: cluster3, spec: runSpec{plan: vgrid.NewFaultPlan(1).DropOnLink("wan", 0, math.Inf(1), 1)}},
		{what: "job 2", a: a, b: b, plt: cluster3, spec: runSpec{opts: core.Options{Async: true, BandsPerProc: -1}}},
		{what: "job 3", a: a, b: b, plt: cluster3, spec: ok},
		{what: "job 4", a: a, b: b, plt: cluster3, spec: ok},
	})
	if err == nil || !strings.Contains(err.Error(), "BandsPerProc -1") || cells != nil || results != nil {
		t.Errorf("solveAll with a rejected third job: err %v, %d cells; want the wrapped cause and none", err, len(cells))
	}
	// The lane and pool-worker goroutines of a run end a moment after it.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > base {
		t.Errorf("%d goroutines after solveAll, %d before", n, base)
	}
	lines := strings.Split(progress.String(), "\n")
	if len(lines) != 5 || lines[0] != "job 0" || lines[1] != "job 1" ||
		!strings.HasPrefix(lines[2], "  run failed (stall): ") || lines[3] != "job 2" || lines[4] != "" {
		t.Errorf("progress %q, want the lines of jobs 0-2 only", progress.String())
	}
}

// startLog records the order in which solveAll starts the jobs of a list,
// through their platform builders, and the cell each builder was handed.
type startLog struct {
	mu    sync.Mutex
	order []int
	deps  map[int]cell
}

func (l *startLog) plt(i int, newPlat func(cell) *cluster.Platform) func(cell) *cluster.Platform {
	return func(dep cell) *cluster.Platform {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.order = append(l.order, i)
		if l.deps == nil {
			l.deps = map[int]cell{}
		}
		l.deps[i] = dep
		return newPlat(dep)
	}
}

// TestSolveAllStartsFirstReadyJob pins the scheduler's start rule: a job that
// waits on job 0 starts only after job 0 has ended, and is handed its cell;
// with two slots the independent job behind it starts first, with one slot
// the jobs start in list order. The cells come back in list order either way.
func TestSolveAllStartsFirstReadyJob(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 1200, Band: 12, PerRow: 7, Seed: 9})
	b, _ := gen.RHSForSolution(a)
	for _, tc := range []struct {
		procs int
		want  []int
	}{{1, []int{0, 1, 2}}, {2, []int{0, 2, 1}}} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			var log startLog
			cells, results, err := Config{}.solveAll([]job{
				{a: a, b: b, plt: log.plt(0, cluster3), spec: runSpec{dslu: true}},
				{a: a, b: b, plt: log.plt(1, cluster3), after: 1, spec: runSpec{opts: core.Options{Async: true}}},
				{a: a, b: b, plt: log.plt(2, cluster3), spec: runSpec{}},
			})
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", tc.procs, err)
			}
			if !reflect.DeepEqual(log.order, tc.want) {
				t.Errorf("GOMAXPROCS %d: jobs started in order %v, want %v", tc.procs, log.order, tc.want)
			}
			if dep := log.deps[1]; dep != cells[0] || !dep.ok || dep.fill == 0 {
				t.Errorf("GOMAXPROCS %d: the gated job's builder got %+v, want job 0's cell %+v", tc.procs, dep, cells[0])
			}
			if results[0] != nil || results[1].Time != cells[1].time || results[2].Time != cells[2].time || cells[1].time == cells[2].time {
				t.Errorf("GOMAXPROCS %d: cells %+v and results out of list order", tc.procs, cells)
			}
		}()
	}
}

// TestSolveAllProgressInListOrder: when a later job ends first, its lines
// still follow the earlier job's. Job 0, a distributed LU on cage11, runs
// several times as long as the small jobs beside it; job 2 starts when job 1
// ends, and its builder sees nothing written yet if job 0 is still running.
func TestSolveAllProgressInListOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cage := Cage11Like(Config{Scale: 64})
	cb, _ := gen.RHSForSolution(cage)
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 1200, Band: 12, PerRow: 7, Seed: 9})
	b, _ := gen.RHSForSolution(a)
	for attempt := 0; ; attempt++ {
		var progress bytes.Buffer
		overtaken := false // job 0 still unwritten when job 1 has ended
		_, _, err := Config{Progress: &progress}.solveAll([]job{
			{what: "job 0", a: cage, b: cb, plt: fixed(func() *cluster.Platform { return cluster.Cluster2(-1) }), spec: runSpec{dslu: true}},
			{what: "job 1", a: a, b: b, plt: cluster3, spec: runSpec{}},
			{what: "job 2", a: a, b: b, plt: func(cell) *cluster.Platform {
				overtaken = progress.Len() == 0
				return cluster.Cluster3(-1)
			}, spec: runSpec{}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := progress.String(); got != "job 0\njob 1\njob 2\n" {
			t.Fatalf("progress %q, want the jobs' lines in list order", got)
		}
		if overtaken {
			return
		}
		if attempt == 2 {
			t.Fatal("job 0 ended before job 1 in three attempts: the test proves nothing")
		}
	}
}

// TestSolveAllFailedGate: a gated job whose job ends without a verified cell
// never starts, and fails the list with the fill-probe error; only the lines
// of the jobs up to the failed one are written.
func TestSolveAllFailedGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 1200, Band: 12, PerRow: 7, Seed: 9})
	b, _ := gen.RHSForSolution(a)
	var log startLog
	var progress bytes.Buffer
	small := fixed(func() *cluster.Platform { return cluster.Cluster1(4, 4096) })
	cells, _, err := Config{Progress: &progress}.solveAll([]job{
		{what: "job 0", a: a, b: b, plt: log.plt(0, small), spec: runSpec{dslu: true, opts: core.Options{TrackMemory: true}}},
		{what: "job 1", a: a, b: b, plt: log.plt(1, cluster3), after: 1, spec: runSpec{}},
		{what: "job 2", a: a, b: b, plt: log.plt(2, cluster3), spec: runSpec{}},
	})
	if err == nil || err.Error() != "experiments: fill probe: nem" || cells != nil {
		t.Errorf("err %v, %d cells; want the fill-probe error and none", err, len(cells))
	}
	if slices.Contains(log.order, 1) {
		t.Errorf("jobs started %v: the gated job started after a failed run", log.order)
	}
	lines := strings.Split(progress.String(), "\n")
	if len(lines) != 3 || lines[0] != "job 0" || !strings.HasPrefix(lines[1], "  run failed (nem): ") || lines[2] != "" {
		t.Errorf("progress %q, want job 0's lines only", progress.String())
	}
}

// TestRegistry: ByName and All are two views of one registry — every All
// entry resolves through ByName (by name and by each alias) to the same
// function, no identifier is claimed twice, and the unknown-name error
// lists the valid names.
func TestRegistry(t *testing.T) {
	fn := func(f func(Config) (*Table, error)) uintptr { return reflect.ValueOf(f).Pointer() }
	seen := map[string]bool{}
	for _, x := range registry {
		for _, id := range append([]string{x.Name}, x.Aliases...) {
			if seen[id] {
				t.Errorf("identifier %q is claimed twice", id)
			}
			seen[id] = true
			run, err := ByName(id)
			if err != nil || fn(run) != fn(x.Run) {
				t.Errorf("ByName(%q) = %v, does not resolve to the %s entry", id, err, x.Name)
			}
		}
	}
	all := All()
	if len(all) != 11 || all[0].Name != "table1" || all[len(all)-1].Name != "adaptive" {
		t.Errorf("All() = %d entries from %q, want the 11 default experiments in paper order", len(all), all[0].Name)
	}
	for _, x := range all {
		if run, err := ByName(x.Name); err != nil || fn(run) != fn(x.Run) {
			t.Errorf("All entry %q does not resolve through ByName", x.Name)
		}
	}
	_, err := ByName("nope")
	if err == nil || !strings.Contains(err.Error(), "table4fair") || !strings.Contains(err.Error(), "adaptive") {
		t.Errorf("unknown-name error %v does not list the valid names", err)
	}
}

// TestTable3BudgetFromRowRun pins where Table 3's "nem" budget comes from: the
// fill of the cage11 row's own distributed-LU run, not a second simulation of
// it. The table launches the distributed solver three times, once per row.
func TestTable3BudgetFromRowRun(t *testing.T) {
	var progress bytes.Buffer
	cfg := Config{Scale: 64, Progress: &progress}
	tab, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(progress.String(), ", distributed SuperLU\n"); n != 3 {
		t.Fatalf("%d distributed-LU launches, want 3:\n%s", n, progress.String())
	}
	cage11, cage12 := Cage11Like(cfg), Cage12Like(cfg)
	b, _ := gen.RHSForSolution(cage11)
	d, _, err := cfg.solve(cluster.Cluster2(-1), cage11, b, runSpec{dslu: true})
	if err != nil || !d.ok || d.fill < int64(cage11.NNZ()) {
		t.Fatalf("row run: %+v, %v", d, err)
	}
	density := float64(d.fill) / (float64(cage11.Rows) * float64(cage11.Rows))
	need := int64(density*float64(cage12.Rows)*float64(cage12.Rows)) * 24 / 10 // per rank of cluster3
	want := fmt.Sprintf("cage12 per-host budget %d bytes ", need*3/10)
	if len(tab.Notes) != 1 || !strings.HasPrefix(tab.Notes[0], want) {
		t.Fatalf("notes %q, want one starting %q", tab.Notes, want)
	}
}

// TestSolveOnSyntheticGrid runs the full multisplitting solver (with the
// topology-aware plans engaged) on a generated multi-cluster platform — the
// path the msolve -hosts flag exercises.
func TestSolveOnSyntheticGrid(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 1200, Band: 12, PerRow: 7, Seed: 9})
	b, _ := gen.RHSForSolution(a)
	plt := cluster.Synthetic(12, 3, 0.3, 5)
	res, err := core.Solve(plt.Platform, plt.Hosts, a, b, core.Options{
		Tol: 1e-8, TopoCollectives: true, Gateway: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence on synthetic grid")
	}
	if r := relResidual(a, res.X, b); r > residualGate {
		t.Errorf("residual %g over gate %g", r, residualGate)
	}
	if res.InterBytes == 0 || res.IntraBytes == 0 {
		t.Errorf("cluster traffic split empty: intra %d, inter %d — clusters not declared?", res.IntraBytes, res.InterBytes)
	}
}

// solveWithLanes runs the full multisplitting solver on a generated
// multi-cluster platform with the requested scheduler-lane count
// (vgrid.Engine.SetLanes: 1 one lane, 0 one lane per cluster).
func solveWithLanes(t *testing.T, lanes int) (*core.Result, int) {
	t.Helper()
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 1200, Band: 12, PerRow: 7, Seed: 9})
	b, _ := gen.RHSForSolution(a)
	plt := cluster.Synthetic(12, 3, 0.3, 5)
	e := vgrid.NewEngine(plt.Platform)
	e.SetLanes(lanes)
	pend, err := core.Launch(e, plt.Hosts, a, b, core.Options{
		Tol: 1e-8, TopoCollectives: true, Gateway: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	pend.Finish()
	res := pend.Result()
	if !res.Converged {
		t.Fatal("no convergence on synthetic grid")
	}
	return res, e.Lanes()
}

// TestSolverIteratesIdenticalAcrossLanes pins the sharded-core determinism
// contract at the solver level: the multisplitting iterates (and the virtual
// clock) are byte-identical whether the engine commits on one lane or one
// lane per cluster.
func TestSolverIteratesIdenticalAcrossLanes(t *testing.T) {
	ref, refLanes := solveWithLanes(t, 1)
	sh, shLanes := solveWithLanes(t, 0)
	if refLanes != 1 || shLanes != 3 {
		t.Errorf("lane counts %d and %d, want 1 and one per cluster (3)", refLanes, shLanes)
	}
	if sh.Iterations != ref.Iterations || sh.Time != ref.Time {
		t.Errorf("sharded solve diverged: %d iters @ %g s vs %d iters @ %g s",
			sh.Iterations, sh.Time, ref.Iterations, ref.Time)
	}
	if len(sh.X) != len(ref.X) {
		t.Fatalf("iterate length %d vs %d", len(sh.X), len(ref.X))
	}
	for i := range sh.X {
		if math.Float64bits(sh.X[i]) != math.Float64bits(ref.X[i]) {
			t.Fatalf("iterate diverges at x[%d]: %x vs %x",
				i, math.Float64bits(sh.X[i]), math.Float64bits(ref.X[i]))
		}
	}
}
