package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

func hostsWithSpeeds(speeds []float64) (*vgrid.Platform, []*vgrid.Host) {
	pl := vgrid.NewPlatform()
	hosts := make([]*vgrid.Host, len(speeds))
	nics := make([]*vgrid.Link, len(speeds))
	for i, s := range speeds {
		hosts[i] = pl.AddHost(fmt.Sprintf("h%d", i), s, 0)
		nics[i] = vgrid.NewLink(fmt.Sprintf("nic%d", i), 25e-6, 1.25e7)
	}
	for i := range hosts {
		for j := i + 1; j < len(hosts); j++ {
			pl.SetRoute(hosts[i], hosts[j], nics[i], nics[j])
		}
	}
	return pl, hosts
}

func TestBalancedStartsProportional(t *testing.T) {
	_, hosts := hostsWithSpeeds([]float64{1e9, 3e9})
	starts, err := balancedStarts(400, hosts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if starts[0] != 0 || starts[2] != 400 {
		t.Fatalf("starts = %v", starts)
	}
	// Host 0 has a quarter of the total speed: about 100 rows.
	if starts[1] < 80 || starts[1] > 120 {
		t.Fatalf("slow host got %d rows, want about 100", starts[1])
	}
}

// With k bands per host the cyclic assignment puts band b on host b mod P, so
// that host's speed weights it: a 1:3 pair owning two bands each splits into
// quarters of 1:3:1:3.
func TestBalancedStartsCyclicBands(t *testing.T) {
	_, hosts := hostsWithSpeeds([]float64{1e9, 3e9})
	starts, err := balancedStarts(800, hosts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 100, 400, 500, 800} {
		if starts[i] != want {
			t.Fatalf("starts = %v, want [0 100 400 500 800]", starts)
		}
	}
}

func TestBalancedStartsEqualSpeedsIsUniform(t *testing.T) {
	_, hosts := hostsWithSpeeds([]float64{2e9, 2e9, 2e9, 2e9})
	starts, err := balancedStarts(100, hosts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 25, 50, 75, 100} {
		if starts[i] != want {
			t.Fatalf("starts = %v, want uniform", starts)
		}
	}
}

func TestBalancedStartsDegenerate(t *testing.T) {
	_, hosts := hostsWithSpeeds([]float64{1e9, 1e9, 1e9})
	if _, err := balancedStarts(2, hosts, 1); err == nil {
		t.Fatal("n < hosts accepted")
	}
	if _, err := balancedStarts(10, nil, 1); err == nil {
		t.Fatal("no hosts accepted")
	}
	// Extreme ratios must still yield non-empty bands.
	_, extreme := hostsWithSpeeds([]float64{1, 1e12, 1e12})
	starts, err := balancedStarts(30, extreme, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			t.Fatalf("empty band in %v", starts)
		}
	}
}

// Balanced bands equalize per-iteration work on a heterogeneous cluster, so
// the synchronous solve gets faster than with uniform bands.
func TestBalanceSpeedsUpHeterogeneousSolve(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 3000, Seed: 40})
	b, xtrue := gen.RHSForSolution(a)
	// Slow hosts put the run in a compute-dominated regime where the 8x
	// speed spread actually shows up in the critical path.
	speeds := []float64{5e5, 5e5, 4e6, 4e6}
	run := func(balance bool) float64 {
		pl, hosts := hostsWithSpeeds(speeds)
		res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, Balance: balance})
		if err != nil {
			t.Fatal(err)
		}
		checkSolution(t, res, xtrue, 1e-6)
		return res.Time
	}
	uniform := run(false)
	balanced := run(true)
	if balanced >= uniform {
		t.Fatalf("balanced %.5fs not faster than uniform %.5fs", balanced, uniform)
	}
}

func TestSolverPerRank(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 800, Seed: 41})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(4, 0)
	res, err := Solve(pl, hosts, a, b, Options{
		Tol: 1e-10,
		SolverPerRank: []splu.Direct{
			&splu.SparseLU{},
			splu.DenseSolver{},
			splu.BandSolver{},
			nil, // falls back to the default solver
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-7)
}

func TestSolverPerRankLengthMismatch(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 100, Seed: 42})
	b, _ := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(3, 0)
	_, err := Solve(pl, hosts, a, b, Options{SolverPerRank: []splu.Direct{&splu.SparseLU{}}})
	if err == nil {
		t.Fatal("mismatched SolverPerRank accepted")
	}
}

func TestEquilibrate(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 600, Seed: 43})
	// Scale some rows badly so raw and equilibrated systems differ.
	for i := 0; i < a.Rows; i += 3 {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			a.Val[p] *= 1e6
		}
	}
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(4, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-10, Equilibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
}

func TestEquilibrateZeroDiagonal(t *testing.T) {
	a := gen.Tridiag(10, -1, 4, -1)
	// Zero out one diagonal entry.
	for p := a.RowPtr[5]; p < a.RowPtr[6]; p++ {
		if a.ColInd[p] == 5 {
			a.Val[p] = 0
		}
	}
	b := make([]float64, 10)
	pl, hosts := lanPlatform(2, 0)
	if _, err := Solve(pl, hosts, a, b, Options{Equilibrate: true}); err == nil {
		t.Fatal("zero diagonal equilibration accepted")
	}
}

func TestEquilibratePreservesSolution(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Seed: 44})
	b, _ := gen.RHSForSolution(a)
	a2 := a.Clone()
	diag, err := equilibrate(a2)
	if err != nil {
		t.Fatal(err)
	}
	b2 := scaleRHS(b, diag)
	// Unit diagonal after scaling.
	for i := 0; i < a2.Rows; i++ {
		if math.Abs(a2.At(i, i)-1) > 1e-12 {
			t.Fatalf("diagonal %v at %d, want 1", a2.At(i, i), i)
		}
	}
	// Same solution: solve both directly and compare.
	x1 := directSolve(t, a, b)
	x2 := directSolve(t, a2, b2)
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-8*(1+math.Abs(x1[i])) {
			t.Fatalf("solutions differ at %d", i)
		}
	}
}

func directSolve(t *testing.T, a *sparse.CSR, b []float64) []float64 {
	t.Helper()
	var c vec.Counter
	f, err := (&splu.SparseLU{}).Factor(a, &c)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	f.Solve(x, b, &c)
	return x
}
