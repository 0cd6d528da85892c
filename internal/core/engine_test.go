package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/vgrid"
)

// runWithWorkers solves a Table-1-shaped system on an 8-host LAN with the
// given worker count, capturing the full scheduler trace.
func runWithWorkers(t *testing.T, workers int, o Options) (string, *Result) {
	t.Helper()
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 712, Band: 60, PerRow: 10, Margin: 0.05, Negative: true, Seed: 1010})
	b, _ := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(8, 0)
	e := vgrid.NewEngine(pl)
	e.SetWorkers(workers)
	var sb strings.Builder
	e.Trace = func(line string) { sb.WriteString(line); sb.WriteByte('\n') }
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
	return sb.String(), pend.Result()
}

// TestEngineWorkersDeterministic: running the compute segments on a pool of
// 4 OS threads must leave the simulation bit-for-bit unchanged — the byte
// stream of scheduler events, the solution vector, the iteration counts and
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
			if tr1 != tr4 {
				d := firstDiffLine(tr1, tr4)
				t.Fatalf("traces diverge (first differing line %d):\n1 worker:  %s\n4 workers: %s", d[0], d[1], d[2])
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

func firstDiffLine(a, b string) [3]interface{} {
	la := strings.Split(a, "\n")
	lb := strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return [3]interface{}{i + 1, la[i], lb[i]}
		}
	}
	return [3]interface{}{len(la), "<end>", "<end>"}
}
