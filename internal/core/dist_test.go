package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// lanPlatform builds an n-host homogeneous LAN (100 Mb/s, 50 µs latency).
func lanPlatform(n int, memory int64) (*vgrid.Platform, []*vgrid.Host) {
	pl := vgrid.NewPlatform()
	hosts := make([]*vgrid.Host, n)
	for i := range hosts {
		hosts[i] = pl.AddHost(fmt.Sprintf("node%d", i), 1e9, memory)
	}
	links := make([]*vgrid.Link, n)
	for i := range links {
		links[i] = vgrid.NewLink(fmt.Sprintf("nic%d", i), 25e-6, 1.25e7)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pl.SetRoute(hosts[i], hosts[j], links[i], links[j])
		}
	}
	return pl, hosts
}

// twoSitePlatform builds two LANs joined by a slow high-latency WAN link.
func twoSitePlatform(nA, nB int) (*vgrid.Platform, []*vgrid.Host) {
	return twoSitePlatformSpeed(nA, nB, 1e9)
}

func twoSitePlatformSpeed(nA, nB int, speed float64) (*vgrid.Platform, []*vgrid.Host) {
	pl := vgrid.NewPlatform()
	var hosts []*vgrid.Host
	var nics []*vgrid.Link
	for i := 0; i < nA+nB; i++ {
		hosts = append(hosts, pl.AddHost(fmt.Sprintf("h%d", i), speed, 0))
		nics = append(nics, vgrid.NewLink(fmt.Sprintf("nic%d", i), 25e-6, 1.25e7))
	}
	wan := vgrid.NewLink("wan", 5e-3, 2.5e6) // 20 Mb/s, 5 ms
	for i := range hosts {
		for j := i + 1; j < len(hosts); j++ {
			sameSite := (i < nA) == (j < nA)
			if sameSite {
				pl.SetRoute(hosts[i], hosts[j], nics[i], nics[j])
			} else {
				pl.SetRoute(hosts[i], hosts[j], nics[i], wan, nics[j])
			}
		}
	}
	return pl, hosts
}

func checkSolution(t *testing.T, res *Result, xtrue []float64, tol float64) {
	t.Helper()
	if res.X == nil {
		t.Fatal("no assembled solution")
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xtrue[i]) > tol*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xtrue[i])
		}
	}
}

func TestDistributedSyncMatchesSequential(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Seed: 17})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(4, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-7)

	d, _ := NewDecomposition(a.Rows, 4, 0, WeightOwner)
	var c vec.Counter
	seq, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-10, 100000, &c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != seq.Iterations {
		t.Fatalf("distributed sync %d iterations, sequential %d", res.Iterations, seq.Iterations)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-seq.X[i]) > 1e-12*(1+math.Abs(seq.X[i])) {
			t.Fatalf("distributed and sequential solutions differ at %d", i)
		}
	}
}

func TestDistributedSyncWithOverlap(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 500, Margin: 0.1, Seed: 18})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(5, 0)
	noOv, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	pl2, hosts2 := lanPlatform(5, 0)
	withOv, err := Solve(pl2, hosts2, a, b, Options{Tol: 1e-9, Overlap: 25})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, withOv, xtrue, 1e-6)
	if withOv.Iterations >= noOv.Iterations {
		t.Fatalf("overlap did not reduce iterations: %d vs %d", withOv.Iterations, noOv.Iterations)
	}
}

func TestDistributedSyncAverageWeights(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Seed: 21})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(3, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-10, Overlap: 15, Scheme: WeightAverage})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
}

func TestDistributedSyncLinearWeights(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Seed: 21})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(3, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-10, Overlap: 15, Scheme: WeightLinear})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
}

func TestDistributedAsyncLinearWeights(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Margin: 0.1, Seed: 22})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(4, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-10, Overlap: 20, Scheme: WeightLinear, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
}

func TestDistributedAsyncDecentralized(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Seed: 19})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(4, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-10, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
	if !res.Converged {
		t.Fatal("not marked converged")
	}
}

func TestDistributedAsyncIterationCountsVary(t *testing.T) {
	// On a heterogeneous platform async ranks iterate at their own pace:
	// counts should not all be identical (paper Section 6.4 observation).
	pl := vgrid.NewPlatform()
	var hosts []*vgrid.Host
	var nics []*vgrid.Link
	speeds := []float64{2.6e9, 1.7e9, 2.0e9, 2.4e9}
	for i, s := range speeds {
		hosts = append(hosts, pl.AddHost(fmt.Sprintf("h%d", i), s, 0))
		nics = append(nics, vgrid.NewLink(fmt.Sprintf("nic%d", i), 25e-6, 1.25e7))
	}
	for i := range hosts {
		for j := i + 1; j < len(hosts); j++ {
			pl.SetRoute(hosts[i], hosts[j], nics[i], nics[j])
		}
	}
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 800, Margin: 0.08, Seed: 23})
	b, xtrue := gen.RHSForSolution(a)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-5)
	same := true
	for _, it := range res.IterationsPerRank {
		if it != res.IterationsPerRank[0] {
			same = false
		}
	}
	if same {
		t.Fatalf("async iteration counts all equal: %v", res.IterationsPerRank)
	}
}

func TestDistributedOnDistantClusters(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 600, Seed: 25})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := twoSitePlatform(3, 3)
	sync, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, sync, xtrue, 1e-6)
	pl2, hosts2 := twoSitePlatform(3, 3)
	async, err := Solve(pl2, hosts2, a, b, Options{Tol: 1e-9, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, async, xtrue, 1e-5)
}

func TestDistributedSingleHost(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 150, Seed: 26})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(1, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-8)
	if res.Iterations > 2 {
		t.Fatalf("single band took %d iterations", res.Iterations)
	}
}

func TestDistributedOutOfMemory(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 2000, Seed: 27})
	b, _ := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(2, 10_000) // 10 kB per host: far too small
	_, err := Solve(pl, hosts, a, b, Options{Tol: 1e-8, TrackMemory: true})
	if !errors.Is(err, vgrid.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

// TestDistributedSingularBand: a band the sparse LU cannot factor fails the
// solve with splu.ErrSingular, inline and on a worker pool. The band's
// factorization runs as a deferred segment with splu.FactorFloor as its floor,
// so this holds only because Factor counts its work on the singular path too;
// a measured cost below the floor would fail the process with the engine's
// own error instead.
func TestDistributedSingularBand(t *testing.T) {
	const n = 40
	co := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		if i == 30 {
			co.Append(i, 5, 1) // the second band's row 30 is empty: singular
			continue
		}
		co.Append(i, i, 4)
		if i > 0 {
			co.Append(i, i-1, -1)
		}
	}
	a := co.ToCSR()
	b := make([]float64, n)
	vec.Fill(b, 1)
	for _, workers := range []int{1, 2} {
		pl, hosts := lanPlatform(2, 0)
		e := vgrid.NewEngine(pl)
		e.SetWorkers(workers)
		pend, err := Launch(e, hosts, a, b, Options{Tol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pend.finish(e.Run()); !errors.Is(err, splu.ErrSingular) {
			t.Fatalf("workers=%d: err = %v, want splu.ErrSingular", workers, err)
		}
	}
}

func TestDistributedMemoryFitsWhenSplit(t *testing.T) {
	// The same per-host budget that fails with 2 hosts succeeds with more
	// hosts: the paper's memory argument for multisplitting.
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 2000, Seed: 27})
	b, xtrue := gen.RHSForSolution(a)
	budget := int64(260_000)
	pl, hosts := lanPlatform(2, budget)
	if _, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, TrackMemory: true}); !errors.Is(err, vgrid.ErrOutOfMemory) {
		t.Fatalf("2 hosts should OOM, got %v", err)
	}
	pl2, hosts2 := lanPlatform(10, budget)
	res, err := Solve(pl2, hosts2, a, b, Options{Tol: 1e-9, TrackMemory: true})
	if err != nil {
		t.Fatalf("10 hosts should fit in the same per-host budget: %v", err)
	}
	checkSolution(t, res, xtrue, 1e-6)
}

func TestDistributedMaxIterAborts(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Margin: 0.02, Seed: 28})
	b, _ := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(3, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-14, MaxIter: 3})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if res == nil || res.Converged {
		t.Fatal("capped run reported convergence")
	}
}

func TestDistributedAsyncMaxIterAborts(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Margin: 0.02, Seed: 28})
	b, _ := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(3, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-14, MaxIter: 5, Async: true})
	if err == nil {
		t.Fatalf("capped async run returned no error (res=%+v)", res)
	}
}

func TestDistributedShapeErrors(t *testing.T) {
	a := gen.Tridiag(10, -1, 4, -1)
	pl, hosts := lanPlatform(2, 0)
	if _, err := Solve(pl, hosts, a, make([]float64, 9), Options{}); err == nil {
		t.Fatal("bad rhs length accepted")
	}
	co := sparse.NewCOO(10, 9)
	if _, err := Solve(pl, hosts, co.ToCSR(), make([]float64, 10), Options{}); err == nil {
		t.Fatal("non-square matrix accepted")
	}
	if _, err := Solve(pl, nil, a, make([]float64, 10), Options{}); err == nil {
		t.Fatal("no hosts accepted")
	}
}

func TestDistributedReportsTimes(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Seed: 30})
	b, _ := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(4, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if res.FactorTime <= 0 || res.Time <= res.FactorTime {
		t.Fatalf("times implausible: factor=%v total=%v", res.FactorTime, res.Time)
	}
	if res.BytesSent <= 0 || res.MsgsSent <= 0 {
		t.Fatalf("no communication recorded: %+v", res)
	}
}

func TestDistributedDeterministic(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Seed: 31})
	b, _ := gen.RHSForSolution(a)
	run := func(async bool) *Result {
		pl, hosts := lanPlatform(3, 0)
		res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, Async: async})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, async := range []bool{false, true} {
		r1, r2 := run(async), run(async)
		if r1.Time != r2.Time || r1.Iterations != r2.Iterations {
			t.Fatalf("async=%v nondeterministic: %v/%d vs %v/%d", async, r1.Time, r1.Iterations, r2.Time, r2.Iterations)
		}
		for i := range r1.X {
			if r1.X[i] != r2.X[i] {
				t.Fatalf("async=%v solutions differ at %d", async, i)
			}
		}
	}
}

// The headline effect of the paper: on distant clusters, network perturbation
// hurts the synchronous solver much more than the asynchronous one.
func TestAsyncMoreRobustToPerturbation(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 900, Margin: 0.15, Seed: 33})
	b, _ := gen.RHSForSolution(a)

	run := func(async bool, perturb bool) float64 {
		// Slow hosts put the run in the paper's regime: compute per
		// iteration well above the WAN latency.
		pl, hosts := twoSitePlatformSpeed(3, 3, 1e6)
		e := vgrid.NewEngine(pl)
		pend, err := Launch(e, hosts, a, b, Options{Tol: 1e-9, Async: async})
		if err != nil {
			t.Fatal(err)
		}
		if perturb {
			// Background flows hammer the WAN link for the whole run.
			src, dst := hosts[0], hosts[len(hosts)-1]
			var flood func(p *vgrid.Proc) error
			target := e.Spawn(dst, "sink", func(p *vgrid.Proc) error {
				for i := 0; i < 400; i++ {
					p.Recv(vgrid.AnySource, 99)
				}
				return nil
			})
			flood = func(p *vgrid.Proc) error {
				for i := 0; i < 400; i++ {
					if err := p.Send(target, 99, nil, 250_000); err != nil {
						return err
					}
					p.Sleep(0.002)
				}
				return nil
			}
			e.Spawn(src, "flood", flood)
		}
		end, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		pend.done = true
		_ = end
		return pend.Result().Time
	}

	syncClean := run(false, false)
	syncPert := run(false, true)
	asyncClean := run(true, false)
	asyncPert := run(true, true)
	syncSlow := syncPert / syncClean
	asyncSlow := asyncPert / asyncClean
	if syncSlow <= 1.01 {
		t.Fatalf("perturbation did not slow the sync solver (%vx)", syncSlow)
	}
	if asyncSlow >= syncSlow {
		t.Fatalf("async slowdown %.2fx not better than sync %.2fx", asyncSlow, syncSlow)
	}
}

// TestLaunchAfterAnotherProcess: ranks address each other by rank, not by
// process id. With a process spawned on the engine before the solver, every
// exchange mode runs the same solve bit for bit: the same iterations,
// traffic, virtual time and x.
func TestLaunchAfterAnotherProcess(t *testing.T) {
	a := gen.Tridiag(40, -1, 4, -1)
	b, _ := gen.RHSForSolution(a)
	for name, o := range map[string]Options{
		"sync": {}, "async": {Async: true}, "gateway": {Gateway: true, TopoCollectives: true},
		"fault-tolerant": {FaultTolerant: true},
	} {
		pl, hosts := twoSiteClustered(2, 2)
		ref, err := Solve(pl, hosts, a, b, o)
		if err != nil {
			t.Fatal(err)
		}
		pl, hosts = twoSiteClustered(2, 2)
		e := vgrid.NewEngine(pl)
		e.Spawn(hosts[0], "idle", func(*vgrid.Proc) error { return nil })
		pend, err := Launch(e, hosts, a, b, o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pend.finish(e.Run())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameResult(t, name+" after an idle process", res, ref)
	}
}
