package experiments

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
)

// TestRingRunWorkersAgree checks the ring workload itself: the event target
// is met from above and the virtual outcome does not depend on the worker
// count.
func TestRingRunWorkersAgree(t *testing.T) {
	one, err := ringRun(ringSpec{Hosts: 32, Clusters: 4, Events: 3000, Lanes: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := ringRun(ringSpec{Hosts: 32, Clusters: 4, Events: 3000, Lanes: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if one.VirtualTime != many.VirtualTime || one.Commits != many.Commits {
		t.Errorf("worker counts disagree: vt %g vs %g, commits %d vs %d",
			one.VirtualTime, many.VirtualTime, one.Commits, many.Commits)
	}
	if one.Events < 3000 || one.Events >= 3000+3*32 {
		t.Errorf("events %d, want the 3000 target met from above", one.Events)
	}
	if one.VirtualTime <= 0 || one.Lanes != 1 {
		t.Errorf("virtual time %g on %d lanes, want positive on one lane", one.VirtualTime, one.Lanes)
	}
}

// TestRingRunRejectsBadGrid: a grid cluster.Synthetic cannot build (more
// clusters than hosts, none at all) or an empty event target is an error
// from ringRun and from both experiments built on it, not a panic.
func TestRingRunRejectsBadGrid(t *testing.T) {
	for _, s := range []ringSpec{
		{Hosts: 5, Clusters: 9, Events: 100},
		{Hosts: 5, Clusters: 0, Events: 100},
		{Hosts: 0, Clusters: 0, Events: 100},
		{Hosts: 4, Clusters: 2, Events: 0},
	} {
		if _, err := ringRun(s); err == nil {
			t.Errorf("ringRun(%+v) accepted", s)
		}
	}
	for name, run := range map[string]func(Config) (*Table, error){"clustergrid": ClusterGrid, "eventshard": EventShard} {
		if tab, err := run(Config{SynthHosts: 5, SynthClusters: 9}); err == nil || tab != nil {
			t.Errorf("%s on 5 hosts / 9 clusters: table %v, err %v; want an error", name, tab, err)
		}
	}
}

// TestClusterGridTable runs the experiment on a single small override grid.
func TestClusterGridTable(t *testing.T) {
	tab, err := ClusterGrid(Config{SynthHosts: 16, SynthClusters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("override grid should produce one row, got %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "16" || tab.Rows[0][1] != "2" {
		t.Errorf("row head = %v, want the override grid size", tab.Rows[0][:2])
	}
	if !strings.HasSuffix(tab.Rows[0][3], " ms") || parse(t, tab.Rows[0][4]) <= 0 {
		t.Errorf("wall-clock %q / ns per commit %q not a positive timing", tab.Rows[0][3], tab.Rows[0][4])
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
