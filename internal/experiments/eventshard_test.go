package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
)

// TestEventShardLaneCountsAgree checks the event-shard workload itself: the
// single-lane and per-cluster-lane engines simulate the same ring to the same
// virtual makespan and commit count, and sharding pays fewer cross-goroutine
// synchronization points than committing centrally.
func TestEventShardLaneCountsAgree(t *testing.T) {
	ref, err := ringRun(ringSpec{Hosts: 32, Clusters: 4, Events: 3000, Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := ringRun(ringSpec{Hosts: 32, Clusters: 4, Events: 3000, Lanes: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Lanes != 4 {
		t.Errorf("auto lanes resolved to %d, want one per cluster (4)", sh.Lanes)
	}
	if sh.VirtualTime != ref.VirtualTime || sh.Commits != ref.Commits {
		t.Errorf("lane counts disagree: vt %g vs %g, commits %d vs %d",
			sh.VirtualTime, ref.VirtualTime, sh.Commits, ref.Commits)
	}
	if sh.Syncs >= ref.Syncs {
		t.Errorf("sharded syncs %d not below single-lane %d", sh.Syncs, ref.Syncs)
	}
}

// TestEventShardTable runs the experiment on a single small override grid.
func TestEventShardTable(t *testing.T) {
	tab, err := EventShard(Config{SynthHosts: 16, SynthClusters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("override grid should produce one row, got %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "16" || tab.Rows[0][1] != "2" || tab.Rows[0][2] != "2" {
		t.Errorf("row head = %v, want the override grid at one lane per cluster", tab.Rows[0][:3])
	}
	if !strings.HasSuffix(tab.Rows[0][9], "x") {
		t.Errorf("sync-reduction cell %q not formatted as a ratio", tab.Rows[0][9])
	}
}

// solveWithLanes runs the full multisplitting solver on a generated
// multi-cluster platform with the requested scheduler-lane count — the path
// Config.Lanes and the msolve/msexp -lanes flags exercise.
func solveWithLanes(t *testing.T, lanes int) (*core.Result, int) {
	t.Helper()
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 1200, Band: 12, PerRow: 7, Seed: 9})
	b, _ := gen.RHSForSolution(a)
	plt := cluster.Synthetic(12, 3, 0.3, 5)
	e := (Config{Lanes: lanes}).newEngine(plt)
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
	ref, refLanes := solveWithLanes(t, 0) // Config zero value: single lane
	sh, shLanes := solveWithLanes(t, -1)  // auto: one lane per cluster
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
