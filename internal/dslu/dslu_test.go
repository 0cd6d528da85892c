package dslu

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/vgrid"
)

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

func solveCheck(t *testing.T, nprocs int, a *sparse.CSR, opt Options, tol float64) *Result {
	t.Helper()
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(nprocs, 0)
	res, err := Solve(pl, hosts, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.X == nil {
		t.Fatal("no solution gathered")
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xtrue[i]) > tol*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xtrue[i])
		}
	}
	return res
}

func TestSingleRankDominant(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 200, Seed: 1})
	solveCheck(t, 1, a, Options{}, 1e-8)
}

func TestMultiRankDominant(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Seed: 2})
	for _, p := range []int{2, 3, 5} {
		solveCheck(t, p, a, Options{}, 1e-8)
	}
}

func TestMatchesAcrossRankCounts(t *testing.T) {
	// The static-pivoting factorization is deterministic: the same system
	// solved on different rank counts must give bitwise-comparable answers
	// up to roundoff reordering.
	a := gen.CageLike(250, 3)
	b, _ := gen.RHSForSolution(a)
	var ref []float64
	for _, p := range []int{1, 4} {
		pl, hosts := lanPlatform(p, 0)
		res, err := Solve(pl, hosts, a, b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.X
			continue
		}
		for i := range ref {
			if math.Abs(ref[i]-res.X[i]) > 1e-9*(1+math.Abs(ref[i])) {
				t.Fatalf("p=%d differs at %d: %v vs %v", p, i, res.X[i], ref[i])
			}
		}
	}
}

func TestPoisson(t *testing.T) {
	a := gen.Poisson2D(15, 14)
	solveCheck(t, 3, a, Options{}, 1e-7)
}

func TestCageLike(t *testing.T) {
	a := gen.CageLike(400, 7)
	solveCheck(t, 4, a, Options{}, 1e-7)
}

func TestNeedsStaticPivotPermutation(t *testing.T) {
	// Zero diagonal: solvable only because MaxTransversal reorders rows.
	co := sparse.NewCOO(4, 4)
	co.Append(0, 1, 2)
	co.Append(0, 0, 0.5)
	co.Append(1, 0, 3)
	co.Append(1, 2, 1)
	co.Append(2, 3, 4)
	co.Append(2, 1, 0.5)
	co.Append(3, 2, 5)
	co.Append(3, 3, 0.25)
	a := co.ToCSR()
	solveCheck(t, 2, a, Options{SkipOrdering: true}, 1e-8)
}

func TestSmallBlockSize(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 150, Seed: 5})
	solveCheck(t, 3, a, Options{BlockSize: 4}, 1e-8)
}

func TestBlockSizeLargerThanMatrix(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 60, Seed: 6})
	solveCheck(t, 2, a, Options{BlockSize: 100}, 1e-8)
}

func TestShapeErrors(t *testing.T) {
	pl, hosts := lanPlatform(2, 0)
	a := gen.Tridiag(10, -1, 4, -1)
	if _, err := Solve(pl, hosts, a, make([]float64, 9), Options{}); err == nil {
		t.Fatal("bad rhs accepted")
	}
	if _, err := Solve(pl, nil, a, make([]float64, 10), Options{}); err == nil {
		t.Fatal("no hosts accepted")
	}
}

func TestStructurallySingular(t *testing.T) {
	co := sparse.NewCOO(2, 2)
	co.Append(0, 0, 1)
	co.Append(1, 0, 1)
	pl, hosts := lanPlatform(1, 0)
	if _, err := Solve(pl, hosts, co.ToCSR(), make([]float64, 2), Options{}); err == nil {
		t.Fatal("structurally singular accepted")
	}
}

func TestStatsReported(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Seed: 8})
	res := solveCheck(t, 3, a, Options{}, 1e-8)
	if res.FillNNZ < int64(a.NNZ()) {
		t.Fatalf("fill %d below nnz(A) %d", res.FillNNZ, a.NNZ())
	}
	if res.FactorTime <= 0 || res.Time < res.FactorTime {
		t.Fatalf("times implausible: %+v", res)
	}
	if res.BytesSent <= 0 {
		t.Fatal("no communication recorded")
	}
}

func TestDeterministic(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 250, Seed: 9})
	b, _ := gen.RHSForSolution(a)
	run := func() *Result {
		pl, hosts := lanPlatform(3, 0)
		res, err := Solve(pl, hosts, a, b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Time != r2.Time || r1.FillNNZ != r2.FillNNZ {
		t.Fatalf("nondeterministic: %+v vs %+v", r1, r2)
	}
	for i := range r1.X {
		if r1.X[i] != r2.X[i] {
			t.Fatalf("solutions differ at %d", i)
		}
	}
}

// The communication pattern the paper exploits: the same solve on a
// high-latency two-site platform is drastically slower, while more local
// processors speed it up (to a point).
func TestLatencySensitivity(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Seed: 10})
	b, _ := gen.RHSForSolution(a)

	pl, hosts := lanPlatform(4, 0)
	lanRes, err := Solve(pl, hosts, a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Two-site: same 4 hosts, but ranks 2,3 behind a slow 20 Mb WAN.
	pl2 := vgrid.NewPlatform()
	var hs []*vgrid.Host
	var nics []*vgrid.Link
	for i := 0; i < 4; i++ {
		hs = append(hs, pl2.AddHost(fmt.Sprintf("h%d", i), 1e9, 0))
		nics = append(nics, vgrid.NewLink(fmt.Sprintf("nic%d", i), 25e-6, 1.25e7))
	}
	wan := vgrid.NewLink("wan", 5e-3, 2.5e6)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if (i < 2) == (j < 2) {
				pl2.SetRoute(hs[i], hs[j], nics[i], nics[j])
			} else {
				pl2.SetRoute(hs[i], hs[j], nics[i], wan, nics[j])
			}
		}
	}
	wanRes, err := Solve(pl2, hs, a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wanRes.Time < 5*lanRes.Time {
		t.Fatalf("WAN run %.4fs not much slower than LAN %.4fs", wanRes.Time, lanRes.Time)
	}
}

// Solve creates an engine on the platform, runs the distributed LU solver
// across the hosts, and returns the result: Launch, Run and Finish the way
// this package's tests want them.
func Solve(pl *vgrid.Platform, hosts []*vgrid.Host, a *sparse.CSR, b []float64, opt Options) (*Result, error) {
	e := vgrid.NewEngine(pl)
	pend, err := Launch(e, hosts, a, b, opt)
	if err != nil {
		return nil, err
	}
	end, err := e.Run()
	pend.res.Time = end
	pend.done = true
	if err != nil {
		return pend.Result(), err
	}
	return pend.Result(), nil
}
