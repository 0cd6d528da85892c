package obs_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/vgrid"
)

// solveRun is what observedSolve reports of one run.
type solveRun struct {
	// exports are the trace JSON, metrics JSON and metrics CSV (nil without
	// a recorder).
	exports [3][]byte
	rec     *obs.Recorder
	end     float64
	// stats, commits, syncs and x are the simulation itself: every
	// process's final counters, the scheduling volume and the iterate.
	stats          []vgrid.Stats
	commits, syncs int64
	x              []float64
}

// observedSolve runs a small multisplitting solve on cluster1, with a
// recorder attached when attach is set, and returns every observability
// export next to the simulation's own outcome.
func observedSolve(t *testing.T, workers int, async bool, attach bool) solveRun {
	t.Helper()
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 600, Band: 40, PerRow: 8, Margin: 0.05, Negative: true, Seed: 77})
	b, _ := gen.RHSForSolution(a)
	plt := cluster.Cluster1(4, -1)
	e := vgrid.NewEngine(plt.Platform)
	e.SetWorkers(workers)
	var r solveRun
	if attach {
		r.rec = &obs.Recorder{}
		e.Observe(r.rec)
	}
	pend, err := core.Launch(e, plt.Hosts, a, b, core.Options{Tol: 1e-8, Overlap: 10, Async: async})
	if err != nil {
		t.Fatal(err)
	}
	r.end, err = e.Run()
	if err != nil {
		t.Fatal(err)
	}
	pend.Finish()
	res := pend.Result()
	if !res.Converged {
		t.Fatal("solve did not converge")
	}
	r.stats, r.x = e.Stats(), res.X
	r.commits, r.syncs = e.EventStats()
	if attach {
		var trace, mj, mc bytes.Buffer
		if err := obs.WriteTraceJSON(&trace, r.rec); err != nil {
			t.Fatal(err)
		}
		m := obs.ComputeMetrics(r.rec, r.end)
		if err := m.WriteJSON(&mj); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteCSV(&mc); err != nil {
			t.Fatal(err)
		}
		r.exports = [3][]byte{trace.Bytes(), mj.Bytes(), mc.Bytes()}
	}
	return r
}

// TestObsDeterministicAcrossWorkers: with observability on, every export —
// the Perfetto trace JSON, the metrics JSON and the metrics CSV — must be
// byte-identical whether the compute segments run serially or on a pool of 4
// worker threads.
func TestObsDeterministicAcrossWorkers(t *testing.T) {
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			r1 := observedSolve(t, 1, async, true)
			r4 := observedSolve(t, 4, async, true)
			labels := []string{"trace JSON", "metrics JSON", "metrics CSV"}
			for i := range r1.exports {
				if !bytes.Equal(r1.exports[i], r4.exports[i]) {
					t.Fatalf("%s differs between 1 and 4 workers", labels[i])
				}
			}
		})
	}
}

// TestObsCriticalPathSumsToMakespan: the profiler's compute+network+wait
// decomposition must cover the walk's makespan within 1% (it is exact by
// construction; the gate leaves float headroom).
func TestObsCriticalPathSumsToMakespan(t *testing.T) {
	r := observedSolve(t, 1, false, true)
	cp := obs.CriticalPath(r.rec)
	if cp == nil {
		t.Fatal("no critical path from an instrumented run")
	}
	sum := cp.Compute + cp.Network + cp.Wait
	if math.Abs(sum-cp.Makespan) > 0.01*cp.Makespan {
		t.Fatalf("decomposition %g vs makespan %g off by more than 1%%", sum, cp.Makespan)
	}
	if cp.Makespan > r.end {
		t.Fatalf("critical-path makespan %g exceeds engine end %g", cp.Makespan, r.end)
	}
}

// TestObsOffLeavesSimulationUnchanged: attaching a recorder must not perturb
// the simulation — every process's final clock, flops, busy and blocked time
// and traffic, the scheduling volume, the end time and every bit of the
// iterate are identical with and without observability.
func TestObsOffLeavesSimulationUnchanged(t *testing.T) {
	off := observedSolve(t, 1, false, false)
	on := observedSolve(t, 1, false, true)
	if !reflect.DeepEqual(off.stats, on.stats) {
		t.Fatalf("observability changed the per-process stats:\noff %+v\non  %+v", off.stats, on.stats)
	}
	if off.commits != on.commits || off.syncs != on.syncs {
		t.Fatalf("observability changed the event stats: %d/%d commits/syncs vs %d/%d", off.commits, off.syncs, on.commits, on.syncs)
	}
	if math.Float64bits(off.end) != math.Float64bits(on.end) {
		t.Fatalf("observability changed the end time: %g vs %g", off.end, on.end)
	}
	for i := range off.x {
		if math.Float64bits(off.x[i]) != math.Float64bits(on.x[i]) {
			t.Fatalf("observability changed x[%d]: %v vs %v", i, off.x[i], on.x[i])
		}
	}
}
