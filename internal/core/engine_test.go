package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/vgrid"
)

// runWithWorkers solves a Table-1-shaped system on an 8-host LAN with the
// given worker count, capturing its record (recordOf).
func runWithWorkers(t *testing.T, workers int, o Options) (runRecord, *Result) {
	t.Helper()
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 712, Band: 60, PerRow: 10, Margin: 0.05, Negative: true, Seed: 1010})
	b, _ := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(8, 0)
	e := vgrid.NewEngine(pl)
	e.SetWorkers(workers)
	rec := &obs.Recorder{}
	e.Observe(rec)
	pend, err := Launch(e, hosts, a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	pend.res.Time = end
	pend.Finish()
	r := recordOf(e, rec)
	requirePooledSteps(t, r.spans)
	return r, pend.Result()
}

// requirePooledSteps fails the test when a step of the recorded run declared
// less than vgrid.InlineFlops: such a step runs inline on any worker count,
// so a 1-vs-N-worker comparison of the run would not reach the pool with it.
// A step is the compute span a rank's iteration opens with.
func requirePooledSteps(t *testing.T, spans []obs.Span) {
	t.Helper()
	iterAt := map[string]map[float64]bool{}
	for _, s := range spans {
		if track, ok := strings.CutPrefix(s.Track, "solver:"); ok && s.Cat == obs.CatIter {
			if iterAt[track] == nil {
				iterAt[track] = map[float64]bool{}
			}
			iterAt[track][s.Start] = true
		}
	}
	steps, least := 0, math.Inf(1)
	for _, s := range spans {
		if s.Cat == obs.CatCompute && iterAt[s.Track][s.Start] {
			steps++
			least = math.Min(least, s.Flops)
		}
	}
	if steps == 0 || least < vgrid.InlineFlops {
		t.Fatalf("%d steps, the smallest declaring %v flops: below vgrid.InlineFlops = %d, steps would run inline on any worker count",
			steps, least, vgrid.InlineFlops)
	}
}

// TestEngineWorkersDeterministic: running the compute segments on a pool of
// 4 OS threads must leave the simulation bit-for-bit unchanged — the obs
// record of every scheduler event, the solution vector, the iteration counts and
// the flop totals all identical to the fully serial run.
func TestEngineWorkersDeterministic(t *testing.T) {
	cases := []struct {
		name string
		o    Options
	}{
		{"sync", Options{Tol: 1e-8, Overlap: 10}},
		{"async", Options{Tol: 1e-8, Overlap: 10, Async: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr1, res1 := runWithWorkers(t, 1, tc.o)
			tr4, res4 := runWithWorkers(t, 4, tc.o)
			if d := tr1.diff(tr4); d != "" {
				t.Fatalf("records diverge between 1 and 4 workers: %s", d)
			}
			if res1.Iterations != res4.Iterations {
				t.Fatalf("iterations: %d vs %d", res1.Iterations, res4.Iterations)
			}
			if res1.Time != res4.Time {
				t.Fatalf("virtual time: %v vs %v", res1.Time, res4.Time)
			}
			if res1.TotalFlops != res4.TotalFlops {
				t.Fatalf("total flops: %v vs %v", res1.TotalFlops, res4.TotalFlops)
			}
			if len(res1.X) != len(res4.X) {
				t.Fatalf("solution lengths differ")
			}
			for i := range res1.X {
				if math.Float64bits(res1.X[i]) != math.Float64bits(res4.X[i]) {
					t.Fatalf("x[%d] differs bitwise: %v vs %v", i, res1.X[i], res4.X[i])
				}
			}
			if !res1.Converged {
				t.Fatal("reference run did not converge")
			}
		})
	}
}

// runRecord is everything two runs of one deterministic simulation must
// agree on: the engine's commit count and end time and the whole obs record.
type runRecord struct {
	commits  int64
	end      float64
	spans    []obs.Span
	samples  []obs.SamplePoint
	counters []obs.CounterTotal
}

// recordOf collects a finished run's record.
func recordOf(e *vgrid.Engine, rec *obs.Recorder) runRecord {
	commits, _ := e.EventStats()
	return runRecord{commits: commits, end: e.Now(), spans: rec.Spans(), samples: rec.Samples(), counters: rec.Counters()}
}

// diff describes the first difference between two records ("" when they are
// identical).
func (r runRecord) diff(o runRecord) string {
	if r.commits != o.commits || r.end != o.end {
		return fmt.Sprintf("%d commits ending at %v vs %d ending at %v", r.commits, r.end, o.commits, o.end)
	}
	if d := firstDiff("span", r.spans, o.spans); d != "" {
		return d
	}
	if d := firstDiff("sample", r.samples, o.samples); d != "" {
		return d
	}
	return firstDiff("counter", r.counters, o.counters)
}

func firstDiff[T comparable](what string, a, b []T) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("%s %d: %+v vs %+v", what, i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d %ss", len(a), len(b), what)
	}
	return ""
}
