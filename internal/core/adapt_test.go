package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/vgrid"
)

// adaptOptions is the baseline adaptive configuration the tests run with: a
// short controller interval so epochs fire several times within a small
// solve, a low hysteresis so a genuine imbalance is acted on, and Balance so
// the initial split is already nameplate-proportional — a fixed point of the
// controller until a fault stretches some host.
func adaptOptions() Options {
	return Options{
		Tol: 1e-12, Overlap: 8, Balance: true,
		Adapt: true, AdaptInterval: 5, AdaptHysteresis: 0.05,
	}
}

// adaptGen is the system adaptiveSolve solves: large and narrow-banded, so
// the band solves dominate the WAN exchange and a row rebalance actually
// moves the makespan.
var adaptGen = gen.DiagDominantOpts{N: 8000, Band: 24, PerRow: 12, Margin: 0.01, Seed: 31}

// degradedPlan slows host g5 to an eighth of its nameplate rate shortly
// after the solve starts, and stretches the shared WAN for part of the run —
// the windowed-degradation regime the live decomposition exists for.
func degradedPlan() *vgrid.FaultPlan {
	return vgrid.NewFaultPlan(41).
		DegradeHost("g5", 0.002, math.Inf(1), 8).
		DegradeLink("wan", 0.01, 0.05, 3, 2)
}

// adaptiveSolve runs one solve on a 6-host, 3-cluster synthetic grid (lane
// shardable: one lane per cluster) with the given fault plan, worker count
// and lane count, capturing its record (recordOf).
func adaptiveSolve(t *testing.T, workers, lanes int, plan *vgrid.FaultPlan, o Options) (*Result, runRecord) {
	t.Helper()
	a := gen.DiagDominant(adaptGen)
	b, _ := gen.RHSForSolution(a)
	plt := cluster.Synthetic(6, 3, 0.3, 5)
	e := vgrid.NewEngine(plt.Platform)
	if workers > 0 {
		e.SetWorkers(workers)
	}
	if lanes >= 0 {
		e.SetLanes(lanes)
	}
	rec := &obs.Recorder{}
	e.Observe(rec)
	if plan != nil {
		e.SetFaultPlan(plan)
	}
	pend, err := Launch(e, plt.Hosts, a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	pend.Finish()
	return pend.Result(), recordOf(e, rec)
}

// adaptXTrue is the reference solution of the system adaptiveSolve builds.
func adaptXTrue() []float64 {
	_, xtrue := gen.RHSForSolution(gen.DiagDominant(adaptGen))
	return xtrue
}

// TestAdaptiveResplitFiresAndConverges: under a persistent host slowdown the
// controller must apply at least one resplit, account for its cost, and the
// solve must still converge to the right solution.
func TestAdaptiveResplitFiresAndConverges(t *testing.T) {
	res, _ := adaptiveSolve(t, 0, -1, degradedPlan(), adaptOptions())
	if !res.Converged {
		t.Fatal("adaptive solve did not converge")
	}
	checkSolution(t, res, adaptXTrue(), 1e-6)
	if res.Resplits < 1 {
		t.Fatalf("no resplit applied under a 4x host slowdown (rejected %d)", res.ResplitRejected)
	}
	if len(res.ResplitEvents) != res.Resplits {
		t.Fatalf("%d resplit events for %d resplits", len(res.ResplitEvents), res.Resplits)
	}
	if res.ResplitFlops <= 0 {
		t.Fatal("resplit cost not accounted")
	}
	for _, ev := range res.ResplitEvents {
		if ev.Iter <= 0 || ev.Time <= 0 {
			t.Fatalf("malformed resplit event %+v", ev)
		}
	}
	// The transition cost must be part of the total, not a side ledger.
	if res.ResplitFlops >= res.TotalFlops {
		t.Fatalf("resplit flops %g exceed total %g", res.ResplitFlops, res.TotalFlops)
	}
}

// TestAdaptiveBeatsStaticUnderDegradation: on the degraded grid the adaptive
// solve must finish sooner than the same solve with the static
// speed-balanced decomposition — the resplits shift rows off the slowed
// host.
func TestAdaptiveBeatsStaticUnderDegradation(t *testing.T) {
	static := adaptOptions()
	static.Adapt = false
	sres, _ := adaptiveSolve(t, 0, -1, degradedPlan(), static)
	ares, _ := adaptiveSolve(t, 0, -1, degradedPlan(), adaptOptions())
	if !sres.Converged || !ares.Converged {
		t.Fatalf("convergence: static %v, adaptive %v", sres.Converged, ares.Converged)
	}
	if ares.Time >= sres.Time {
		t.Fatalf("adaptive makespan %.4f did not beat static %.4f (resplits %d, rejected %d)",
			ares.Time, sres.Time, ares.Resplits, ares.ResplitRejected)
	}
}

// TestAdaptiveNoFaultsNoResplit: on a healthy grid with the
// speed-proportional split the controller must stay quiet — every host's
// stretch is exactly 1, the split is a fixed point, and the iterates match
// the non-adaptive run bit for bit.
func TestAdaptiveNoFaultsNoResplit(t *testing.T) {
	o := adaptOptions()
	ares, _ := adaptiveSolve(t, 0, -1, nil, o)
	if ares.Resplits != 0 {
		t.Fatalf("resplit on a healthy speed-balanced grid: %d", ares.Resplits)
	}
	o.Adapt = false
	sres, _ := adaptiveSolve(t, 0, -1, nil, o)
	if ares.Iterations != sres.Iterations {
		t.Fatalf("idle controller changed the iteration count: %d vs %d", ares.Iterations, sres.Iterations)
	}
	for i := range sres.X {
		if math.Float64bits(ares.X[i]) != math.Float64bits(sres.X[i]) {
			t.Fatalf("idle controller perturbed x[%d]: %v vs %v", i, ares.X[i], sres.X[i])
		}
	}
}

// TestAdaptiveDeterministicAcrossLanesAndWorkers is the tentpole determinism
// contract: with the controller live on a fault-laden topology, the engine
// must produce byte-identical obs records, bitwise-identical iterates and the
// same resplit timeline for every worker and lane count.
func TestAdaptiveDeterministicAcrossLanesAndWorkers(t *testing.T) {
	cases := []struct {
		name           string
		workers, lanes int
	}{
		{"w1-l1", 1, 1},
		{"w4-l1", 4, 1},
		{"w1-lauto", 1, 0},
		{"w4-lauto", 4, 0},
	}
	ref, refTrace := adaptiveSolve(t, cases[0].workers, cases[0].lanes, degradedPlan(), adaptOptions())
	if ref.Resplits < 1 {
		t.Fatal("reference run applied no resplit; the determinism check would be vacuous")
	}
	for _, tc := range cases[1:] {
		t.Run(tc.name, func(t *testing.T) {
			res, record := adaptiveSolve(t, tc.workers, tc.lanes, degradedPlan(), adaptOptions())
			if d := refTrace.diff(record); d != "" {
				t.Fatalf("record diverges from w1-l1: %s", d)
			}
			if res.Iterations != ref.Iterations || res.Time != ref.Time {
				t.Fatalf("results diverge: %d/%v vs %d/%v", res.Iterations, res.Time, ref.Iterations, ref.Time)
			}
			for i := range ref.X {
				if math.Float64bits(res.X[i]) != math.Float64bits(ref.X[i]) {
					t.Fatalf("x[%d] differs bitwise", i)
				}
			}
			if len(res.ResplitEvents) != len(ref.ResplitEvents) {
				t.Fatalf("resplit timelines differ: %d vs %d events", len(res.ResplitEvents), len(ref.ResplitEvents))
			}
			for i, ev := range res.ResplitEvents {
				if ev != ref.ResplitEvents[i] {
					t.Fatalf("resplit event %d differs: %+v vs %+v", i, ev, ref.ResplitEvents[i])
				}
			}
		})
	}
}

// TestAdaptiveRejectsIncompatibleModes: the live decomposition resizes one
// exactly-solved band per rank; the two documented exceptions of the option
// matrix carry the typed reason.
func TestAdaptiveRejectsIncompatibleModes(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 120, Seed: 3})
	b := make([]float64, 120)
	pl, hosts := lanPlatform(2, 0)
	adapt := Options{Adapt: true, AdaptInterval: 20, AdaptHysteresis: 0.1}
	multiband := adapt
	multiband.BandsPerProc = 2
	_, err := Solve(pl, hosts, a, b, multiband)
	if !errors.Is(err, ErrIncompatible) || !strings.Contains(err.Error(), "Adapt") {
		t.Fatalf("multiband: err = %v", err)
	}
	twoStage := adapt
	twoStage.TwoStage = TwoStage{InnerIters: 3, PrecondBand: 16}
	_, err = Solve(pl, hosts, a, b, twoStage)
	if !errors.Is(err, ErrIncompatible) || !strings.Contains(err.Error(), "Adapt") {
		t.Fatalf("twostage: err = %v", err)
	}
}
