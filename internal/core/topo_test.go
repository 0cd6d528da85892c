package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/vgrid"
)

// twoSiteClustered is twoSitePlatform with the two sites declared as vgrid
// clusters, so the topology-aware modes engage.
func twoSiteClustered(nA, nB int) (*vgrid.Platform, []*vgrid.Host) {
	pl, hosts := twoSitePlatform(nA, nB)
	pl.AddCluster("siteA", hosts[:nA]...)
	pl.AddCluster("siteB", hosts[nA:]...)
	return pl, hosts
}

// topoTestSystem is a Table-1-shaped system whose band coupling spans the
// site boundary of a 2+2 decomposition.
func topoTestSystem(t *testing.T) (a *sparse.CSR, b, xtrue []float64) {
	t.Helper()
	// The wide band couples every pair of the four ranks, so four rank pairs
	// cross the site boundary — the regime the gateway batching targets.
	a = gen.DiagDominant(gen.DiagDominantOpts{N: 480, Band: 300, PerRow: 8, Margin: 0.05, Negative: true, Seed: 99})
	b, xtrue = gen.RHSForSolution(a)
	return a, b, xtrue
}

// runClustered solves on the clustered two-site platform with full
// observability, returning the run's record (recordOf) and the
// per-rank "diff" sample values (the per-iteration successive-iterate
// criterion) alongside. Every step of the run reaches the worker pool
// (requirePooledSteps).
func runClustered(t *testing.T, workers int, o Options) (*Result, runRecord, map[string][]float64) {
	t.Helper()
	a, _, _ := topoTestSystem(t)
	res, r, iterates := runClusteredOn(t, func() (*vgrid.Platform, []*vgrid.Host) { return twoSiteClustered(2, 2) }, a, workers, o)
	requirePooledSteps(t, r.spans)
	return res, r, iterates
}

// runClusteredOn is runClustered on another clustered platform and system.
func runClusteredOn(t *testing.T, platform func() (*vgrid.Platform, []*vgrid.Host), a *sparse.CSR, workers int, o Options) (*Result, runRecord, map[string][]float64) {
	t.Helper()
	b, _ := gen.RHSForSolution(a)
	pl, hosts := platform()
	e := vgrid.NewEngine(pl)
	if workers > 0 {
		e.SetWorkers(workers)
	}
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
	iterates := map[string][]float64{}
	for _, sp := range rec.Samples() {
		if sp.Series == "diff" {
			iterates[sp.Track] = append(iterates[sp.Track], sp.V)
		}
	}
	return pend.Result(), recordOf(e, rec), iterates
}

// TestGatewaySyncByteIdentical is the plan-equivalence contract: the
// synchronous solve must produce bitwise-identical iterates and solution
// whether the inter-cluster exchange goes over direct WAN messages or
// through the gateway aggregators — the gateway changes only the transport.
func TestGatewaySyncByteIdentical(t *testing.T) {
	o := Options{Tol: 1e-9, Overlap: 8}
	direct, _, directIt := runClustered(t, 0, o)
	o.Gateway = true
	gw, _, gwIt := runClustered(t, 0, o)

	if !direct.Converged || !gw.Converged {
		t.Fatalf("convergence: direct %v, gateway %v", direct.Converged, gw.Converged)
	}
	if direct.Iterations != gw.Iterations {
		t.Fatalf("iterations: direct %d, gateway %d", direct.Iterations, gw.Iterations)
	}
	for i := range direct.X {
		if math.Float64bits(direct.X[i]) != math.Float64bits(gw.X[i]) {
			t.Fatalf("x[%d] differs bitwise: %v vs %v", i, direct.X[i], gw.X[i])
		}
	}
	if len(gwIt) == 0 {
		t.Fatal("no diff samples recorded")
	}
	for track, vals := range directIt {
		gvals := gwIt[track]
		if len(gvals) != len(vals) {
			t.Fatalf("%s: %d vs %d diff samples", track, len(vals), len(gvals))
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(gvals[i]) {
				t.Fatalf("%s iteration %d criterion differs bitwise: %v vs %v",
					track, i+1, vals[i], gvals[i])
			}
		}
	}
	// The batching must actually shrink the WAN message count.
	if gw.InterMsgs >= direct.InterMsgs {
		t.Fatalf("gateway inter-cluster messages did not drop: %d vs %d", gw.InterMsgs, direct.InterMsgs)
	}
	if gw.IntraMsgs+gw.InterMsgs != gw.MsgsSent || gw.IntraBytes+gw.InterBytes != gw.BytesSent {
		t.Fatal("traffic split does not add up")
	}
}

// TestTopoCollectivesByteIdentical: routing the convergence Allreduce and
// the final gather through cluster leaders must not change the numerics —
// max/copy reductions are order-independent — only the message routes.
func TestTopoCollectivesByteIdentical(t *testing.T) {
	o := Options{Tol: 1e-9, Overlap: 8}
	flat, _, _ := runClustered(t, 0, o)
	o.TopoCollectives = true
	topo, _, _ := runClustered(t, 0, o)
	if flat.Iterations != topo.Iterations {
		t.Fatalf("iterations: flat %d, topo %d", flat.Iterations, topo.Iterations)
	}
	for i := range flat.X {
		if math.Float64bits(flat.X[i]) != math.Float64bits(topo.X[i]) {
			t.Fatalf("x[%d] differs bitwise: %v vs %v", i, flat.X[i], topo.X[i])
		}
	}
}

// TestGatewayWorkersDeterministic: the gateway exchange must preserve the
// engine's worker-count determinism contract — byte-identical scheduler
// obs records and results for 1 vs 4 workers, in every exchange mode.
func TestGatewayWorkersDeterministic(t *testing.T) {
	cases := []struct {
		name string
		o    Options
	}{
		{"sync", Options{Tol: 1e-8, Overlap: 8, Gateway: true, TopoCollectives: true}},
		{"async", Options{Tol: 1e-8, Overlap: 8, Gateway: true, Async: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r1, tr1, _ := runClustered(t, 1, tc.o)
			r4, tr4, _ := runClustered(t, 4, tc.o)
			if d := tr1.diff(tr4); d != "" {
				t.Fatalf("records diverge between 1 and 4 workers: %s", d)
			}
			if r1.Iterations != r4.Iterations || r1.Time != r4.Time {
				t.Fatalf("results diverge: %d/%v vs %d/%v", r1.Iterations, r1.Time, r4.Iterations, r4.Time)
			}
			for i := range r1.X {
				if math.Float64bits(r1.X[i]) != math.Float64bits(r4.X[i]) {
					t.Fatalf("x[%d] differs bitwise", i)
				}
			}
		})
	}
}

// TestGatewayAsyncConverges: the asynchronous mode keeps its
// freshest-per-origin semantics through the aggregators and still converges
// to the right solution.
func TestGatewayAsyncConverges(t *testing.T) {
	a, b, xtrue := topoTestSystem(t)
	pl, hosts := twoSiteClustered(2, 2)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, Overlap: 8, Async: true, Gateway: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
}

// TestGatewayFlatPlatformNoop: with no cluster declarations Gateway must
// silently fall back to the direct plan.
func TestGatewayFlatPlatformNoop(t *testing.T) {
	a, b, xtrue := topoTestSystem(t)
	pl, hosts := lanPlatform(4, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, Overlap: 8, Gateway: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
	if res.InterMsgs != 0 || res.InterBytes != 0 {
		t.Fatalf("flat platform counted inter-cluster traffic: %d msgs", res.InterMsgs)
	}
}

// TestTopologyExchangeAllocBudget pins the allocation economy of the hot
// solve path: one full solve of the scale-64 cage system on cluster3, for
// each exchange style of the wan_cage_exchange workload, must stay under its
// heap-allocation budget. The engine has 4 workers: testing.AllocsPerRun sets
// GOMAXPROCS to 1, so an engine left at its default would run every segment
// inline and the budget could not see the worker pool. Each budget has ~15%
// headroom over the measured count, so incidental churn passes but a
// per-segment allocation in the pool handoff (a completion channel per
// segment was ~1.0k objects on the synchronous solves, ~2.0k on the
// asynchronous one) or a reintroduced per-iteration allocation storm (the
// packed-message, envelope and span storms this guards against were ~36k)
// fails loudly.
func TestTopologyExchangeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run skipped in -short mode")
	}
	a := gen.CageLike(11397/64, 1030)
	rhs, _ := gen.RHSForSolution(a)
	for _, tc := range []struct {
		name   string
		o      Options
		budget float64
	}{
		{"sync-direct", Options{}, 1600},
		{"gateway-topo", Options{TopoCollectives: true, Gateway: true}, 1600},
		{"async", Options{Async: true}, 2030},
	} {
		solve := func() {
			plt := cluster.Cluster3(-1)
			e := vgrid.NewEngine(plt.Platform)
			e.SetWorkers(4)
			pend, err := Launch(e, plt.Hosts, a, rhs, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			r, err := pend.finish(e.Run())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Converged {
				t.Fatalf("%s: no convergence", tc.name)
			}
		}
		// AllocsPerRun's own warm-up run primes the engine's buffer pools.
		allocs := testing.AllocsPerRun(3, solve)
		t.Logf("%s: %.0f objects per solve", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s solve allocates %.0f objects, budget is %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// TestSessionAcceptsGateway: a session routes its inter-cluster exchange
// through the aggregators like a one-shot solve — the first Resolve is the
// gateway Solve bit for bit, and a refreshed Resolve starts from clean
// gateway staging and converges on the new values with the same WAN economy.
func TestSessionAcceptsGateway(t *testing.T) {
	a, b, _ := topoTestSystem(t)
	factory := func() (*vgrid.Platform, []*vgrid.Host) { return twoSiteClustered(2, 2) }
	o := Options{Tol: 1e-9, Gateway: true, TopoCollectives: true}
	sess, err := NewSession(factory, a, o)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Resolve(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	pl, hosts := factory()
	ref, err := Solve(pl, hosts, a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "first Resolve vs Solve", first, ref)

	direct, err := NewSession(factory, a, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	vals := perturbedVals(a, 1)[0]
	a2 := a.Clone()
	copy(a2.Val, vals)
	for _, v := range [][]float64{nil, vals} {
		if _, err := direct.Resolve(v, b); err != nil {
			t.Fatal(err)
		}
	}
	second, err := sess.Resolve(vals, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := residualInf(a2, second.X, b); r > 1e-7 {
		t.Fatalf("refreshed gateway Resolve: true residual %v", r)
	}
	plain, err := direct.Resolve(vals, b)
	if err != nil {
		t.Fatal(err)
	}
	if second.InterMsgs >= plain.InterMsgs {
		t.Fatalf("gateway session crossed the WAN %d times, the direct session %d", second.InterMsgs, plain.InterMsgs)
	}
}

// TestSessionTopologyValidated: a session validates the platform's cluster
// declarations like Solve does — a host outside every declared cluster fails
// the first Resolve, whichever topology-aware mode asked for them.
func TestSessionTopologyValidated(t *testing.T) {
	a, b, _ := topoTestSystem(t)
	for name, o := range map[string]Options{
		"topo-collectives": {TopoCollectives: true},
		"gateway":          {Gateway: true},
	} {
		t.Run(name, func(t *testing.T) {
			sess, err := NewSession(func() (*vgrid.Platform, []*vgrid.Host) {
				pl, hosts := twoSitePlatform(2, 2)
				pl.AddCluster("siteA", hosts[:2]...)
				pl.AddCluster("siteB", hosts[2:3]...)
				return pl, hosts
			}, a, o)
			if err != nil {
				t.Fatal(err)
			}
			_, err = sess.Resolve(nil, b)
			if err == nil || !strings.Contains(err.Error(), "belongs to no cluster") {
				t.Fatalf("err = %v", err)
			}
		})
	}
}

// TestTopologyValidationFailsEarly: enabling a topology-aware mode on a
// platform with broken cluster declarations must fail at Launch.
func TestTopologyValidationFailsEarly(t *testing.T) {
	a, b, _ := topoTestSystem(t)
	pl, hosts := twoSitePlatform(2, 2)
	pl.AddCluster("partial", hosts[0])
	_, err := Solve(pl, hosts, a, b, Options{Gateway: true})
	if err == nil || !strings.Contains(err.Error(), "belongs to no cluster") {
		t.Fatalf("err = %v", err)
	}
}
