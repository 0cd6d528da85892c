package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/vgrid"
)

// faultedSolve runs one distributed solve on a 2+2 two-site platform with an
// optional fault plan, capturing its record (recordOf).
func faultedSolve(t *testing.T, workers int, plan *vgrid.FaultPlan, opt Options) (*Result, runRecord, error) {
	t.Helper()
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 240, Seed: 23})
	b, _ := gen.RHSForSolution(a)
	pl, hosts := twoSitePlatform(2, 2)
	e := vgrid.NewEngine(pl)
	if workers > 0 {
		e.SetWorkers(workers)
	}
	rec := &obs.Recorder{}
	e.Observe(rec)
	if plan != nil {
		e.SetFaultPlan(plan)
	}
	pend, err := Launch(e, hosts, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	end, err := e.Run()
	pend.res.Time = end
	pend.done = true
	return pend.Result(), recordOf(e, rec), err
}

func ftAsyncOptions() Options {
	return Options{Tol: 1e-8, Async: true, FaultTolerant: true}
}

// TestFaultedSolveDeterministicAcrossWorkers: a full fault-tolerant
// asynchronous solve under 5% WAN message drop must produce byte-identical
// obs records for a serial and a 4-thread worker pool.
func TestFaultedSolveDeterministicAcrossWorkers(t *testing.T) {
	plan := func() *vgrid.FaultPlan {
		return vgrid.NewFaultPlan(7).DropOnLink("wan", 0, math.Inf(1), 0.05)
	}
	res1, tr1, err1 := faultedSolve(t, 1, plan(), ftAsyncOptions())
	res4, tr4, err4 := faultedSolve(t, 4, plan(), ftAsyncOptions())
	if err1 != nil || err4 != nil {
		t.Fatalf("faulted solves failed: %v / %v", err1, err4)
	}
	if d := tr1.diff(tr4); d != "" {
		t.Fatalf("obs records differ between 1 and 4 workers under faults: %s", d)
	}
	if res1.Time != res4.Time || res1.Iterations != res4.Iterations {
		t.Fatalf("results differ: time %v vs %v, iters %d vs %d",
			res1.Time, res4.Time, res1.Iterations, res4.Iterations)
	}
}

// TestZeroFaultSolveIdenticalToNoPlan: installing an empty fault plan must
// not perturb the obs record of a fault-free solve in any way.
func TestZeroFaultSolveIdenticalToNoPlan(t *testing.T) {
	_, trNone, errNone := faultedSolve(t, 0, nil, ftAsyncOptions())
	_, trZero, errZero := faultedSolve(t, 0, vgrid.NewFaultPlan(99), ftAsyncOptions())
	if errNone != nil || errZero != nil {
		t.Fatalf("solves failed: %v / %v", errNone, errZero)
	}
	if d := trNone.diff(trZero); d != "" {
		t.Fatalf("zero-fault plan perturbed the obs record: %s", d)
	}
}

// TestFaultedAsyncMatchesFaultFree: under 5% WAN drop the fault-tolerant
// asynchronous solver must still converge, to the same solution (within the
// stopping tolerance) as the fault-free run.
func TestFaultedAsyncMatchesFaultFree(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 240, Seed: 23})
	_, xtrue := gen.RHSForSolution(a)

	clean, _, err := faultedSolve(t, 0, nil, ftAsyncOptions())
	if err != nil {
		t.Fatalf("fault-free solve: %v", err)
	}
	faulted, _, err := faultedSolve(t, 0,
		vgrid.NewFaultPlan(7).DropOnLink("wan", 0, math.Inf(1), 0.05), ftAsyncOptions())
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	checkSolution(t, clean, xtrue, 1e-6)
	checkSolution(t, faulted, xtrue, 1e-6)
	if faulted.Iterations < clean.Iterations {
		t.Logf("note: faulted run took fewer iterations (%d) than clean (%d)",
			faulted.Iterations, clean.Iterations)
	}
}

// TestSyncDeadRankFailFast: with a permanently crashed host, the
// fault-tolerant synchronous driver must fail fast with a dead-rank
// diagnostic instead of deadlocking.
func TestSyncDeadRankFailFast(t *testing.T) {
	plan := vgrid.NewFaultPlan(1).CrashHost("h3", 0.001, math.Inf(1))
	_, _, err := faultedSolve(t, 0, plan, Options{Tol: 1e-9, FaultTolerant: true})
	if err == nil {
		t.Fatal("expected a dead-rank error, got success")
	}
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("error lacks dead-rank diagnostic: %v", err)
	}
}

// TestAsyncCrashRestartConverges: a host crash with restart mid-solve: the
// surviving ranks keep iterating on the freshest known data, the restarted
// rank resynchronizes, and the run converges to the fault-free solution.
func TestAsyncCrashRestartConverges(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 240, Seed: 23})
	_, xtrue := gen.RHSForSolution(a)

	clean, _, err := faultedSolve(t, 0, nil, ftAsyncOptions())
	if err != nil {
		t.Fatalf("fault-free solve: %v", err)
	}
	from, until := 0.25*clean.Time, 0.5*clean.Time
	plan := vgrid.NewFaultPlan(3).CrashHost("h2", from, until)
	res, record, err := faultedSolve(t, 0, plan, ftAsyncOptions())
	if err != nil {
		t.Fatalf("crash/restart solve: %v", err)
	}
	var marks []string
	for _, s := range record.spans {
		if s.Cat == obs.CatMark {
			marks = append(marks, s.Track+" "+s.Name)
		}
	}
	if !reflect.DeepEqual(marks, []string{"h2 crash", "h2 restart"}) {
		t.Fatalf("the obs record marks %q, want the plan's crash and restart", marks)
	}
	checkSolution(t, res, xtrue, 1e-6)
	if res.Time <= clean.Time {
		t.Logf("note: crashed run finished no later than clean run (%.4f vs %.4f)", res.Time, clean.Time)
	}
}
