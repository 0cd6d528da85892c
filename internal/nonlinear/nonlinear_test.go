package nonlinear

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// cubicProblem builds A·x + x³ = b with a manufactured solution (the
// monotone nonlinearity class of the companion transport paper).
func cubicProblem(n int, seed int64) (*Problem, []float64) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: n, Seed: seed})
	xtrue := make([]float64, n)
	for i := range xtrue {
		xtrue[i] = 0.5 + 0.4*math.Sin(float64(i)*0.05)
	}
	b := make([]float64, n)
	var c vec.Counter
	a.MulVec(b, xtrue, &c)
	for i := range b {
		b[i] += xtrue[i] * xtrue[i] * xtrue[i]
	}
	return &Problem{
		A: a,
		Phi: Diagonal{
			Phi:  func(i int, v float64) float64 { return v * v * v },
			DPhi: func(i int, v float64) float64 { return 3 * v * v },
		},
		B: b,
	}, xtrue
}

func TestNewtonSequentialCubic(t *testing.T) {
	p, xtrue := cubicProblem(500, 1)
	var c vec.Counter
	res, err := SolveSequential(p, &splu.SparseLU{}, Options{NewtonTol: 1e-10}, &c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xtrue[i]) > 1e-7*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xtrue[i])
		}
	}
	// Newton on a smooth monotone problem: a handful of outer steps.
	if res.NewtonIterations > 12 {
		t.Fatalf("Newton took %d iterations", res.NewtonIterations)
	}
	if res.InnerIterations <= res.NewtonIterations {
		t.Fatalf("inner iterations %d implausible", res.InnerIterations)
	}
}

func TestNewtonLinearProblemOneStep(t *testing.T) {
	// φ = 0: Newton must converge in one step (plus the residual check).
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 200, Seed: 2})
	b, xtrue := gen.RHSForSolution(a)
	p := &Problem{
		A: a,
		Phi: Diagonal{
			Phi:  func(int, float64) float64 { return 0 },
			DPhi: func(int, float64) float64 { return 0 },
		},
		B: b,
	}
	var c vec.Counter
	res, err := SolveSequential(p, &splu.SparseLU{}, Options{NewtonTol: 1e-9}, &c)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewtonIterations > 2 {
		t.Fatalf("linear problem took %d Newton steps", res.NewtonIterations)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xtrue[i]) > 1e-7 {
			t.Fatal("wrong solution")
		}
	}
}

func TestNewtonQuadraticConvergence(t *testing.T) {
	// Residuals along the Newton path should collapse fast: starting from
	// zero, reaching 1e-10 within ~8 steps on this smooth problem.
	p, _ := cubicProblem(300, 3)
	var c vec.Counter
	res, err := SolveSequential(p, &splu.SparseLU{}, Options{NewtonTol: 1e-10}, &c)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewtonIterations > 8 {
		t.Fatalf("convergence too slow: %d steps", res.NewtonIterations)
	}
	if res.Residual > 1e-10 {
		t.Fatalf("final residual %v", res.Residual)
	}
}

func TestNewtonMaxIterations(t *testing.T) {
	p, _ := cubicProblem(100, 4)
	var c vec.Counter
	_, err := SolveSequential(p, &splu.SparseLU{}, Options{NewtonTol: 1e-14, MaxNewton: 1}, &c)
	if !errors.Is(err, ErrNewtonNoConvergence) {
		t.Fatalf("err = %v, want ErrNewtonNoConvergence", err)
	}
}

func TestNewtonDistributed(t *testing.T) {
	p, xtrue := cubicProblem(600, 5)
	newPlat := func() (*vgrid.Platform, []*vgrid.Host) {
		pl := vgrid.NewPlatform()
		var hosts []*vgrid.Host
		var nics []*vgrid.Link
		for i := 0; i < 4; i++ {
			hosts = append(hosts, pl.AddHost(string(rune('a'+i)), 1e9, 0))
			nics = append(nics, vgrid.NewLink(string(rune('a'+i)), 25e-6, 1.25e7))
		}
		for i := range hosts {
			for j := i + 1; j < len(hosts); j++ {
				pl.SetRoute(hosts[i], hosts[j], nics[i], nics[j])
			}
		}
		return pl, hosts
	}
	res, err := SolveDistributed(newPlat, p, Options{
		NewtonTol: 1e-9,
		Inner:     core.Options{Tol: 1e-11},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xtrue[i]) > 1e-6*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xtrue[i])
		}
	}
	if res.Time <= 0 {
		t.Fatal("no virtual time accumulated")
	}
}

func TestNewtonDistributedAsyncInner(t *testing.T) {
	p, xtrue := cubicProblem(600, 6)
	newPlat := func() (*vgrid.Platform, []*vgrid.Host) {
		pl := vgrid.NewPlatform()
		var hosts []*vgrid.Host
		var nics []*vgrid.Link
		for i := 0; i < 3; i++ {
			hosts = append(hosts, pl.AddHost(string(rune('a'+i)), 1e9, 0))
			nics = append(nics, vgrid.NewLink(string(rune('a'+i)), 25e-6, 1.25e7))
		}
		for i := range hosts {
			for j := i + 1; j < len(hosts); j++ {
				pl.SetRoute(hosts[i], hosts[j], nics[i], nics[j])
			}
		}
		return pl, hosts
	}
	res, err := SolveDistributed(newPlat, p, Options{
		NewtonTol: 1e-8,
		Inner:     core.Options{Tol: 1e-10, Async: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xtrue[i]) > 1e-5*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xtrue[i])
		}
	}
}

// TestNewtonDistributedEveryInnerOption: the inner options pass straight
// through the session — gateway exchange with topology-aware collectives,
// speed-balanced bands and equilibration together, on a two-site grid of
// unequal hosts — and Newton reaches the sequential solver's answer.
func TestNewtonDistributedEveryInnerOption(t *testing.T) {
	p, _ := cubicProblem(600, 7)
	var c vec.Counter
	seq, err := SolveSequential(p, &splu.SparseLU{}, Options{NewtonTol: 1e-10}, &c)
	if err != nil {
		t.Fatal(err)
	}
	newPlat := func() (*vgrid.Platform, []*vgrid.Host) {
		plt := cluster.Synthetic(6, 2, 0.3, 5)
		return plt.Platform, plt.Hosts
	}
	res, err := SolveDistributed(newPlat, p, Options{
		NewtonTol: 1e-9,
		Inner: core.Options{Tol: 1e-11, Gateway: true, TopoCollectives: true,
			Balance: true, Equilibrate: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-seq.X[i]) > 1e-6*(1+math.Abs(seq.X[i])) {
			t.Fatalf("x[%d] = %v, sequential Newton %v", i, res.X[i], seq.X[i])
		}
	}
	if res.NewtonIterations < 2 || res.FactorFlops <= 0 {
		t.Fatalf("%d Newton steps, %v factor flops: the session did not carry over", res.NewtonIterations, res.FactorFlops)
	}
}

func TestJacobianStructuralZeroDiagonal(t *testing.T) {
	// A has a structurally missing diagonal entry; the Jacobian must still
	// place φ' there.
	co := sparseNoDiag()
	p := &Problem{
		A: co,
		Phi: Diagonal{
			Phi:  func(i int, v float64) float64 { return 5 * v },
			DPhi: func(i int, v float64) float64 { return 5 },
		},
		B: []float64{1, 2},
	}
	var c vec.Counter
	j := p.Jacobian([]float64{0, 0}, &c)
	if j.At(0, 0) != 5 {
		t.Fatalf("J(0,0) = %v, want 5", j.At(0, 0))
	}
}

func TestResidualAtSolutionIsZero(t *testing.T) {
	p, xtrue := cubicProblem(50, 7)
	var c vec.Counter
	r := make([]float64, 50)
	if got := p.Residual(r, xtrue, &c); got > 1e-10 {
		t.Fatalf("residual at solution = %v", got)
	}
}

func sparseNoDiag() *sparse.CSR {
	co := sparse.NewCOO(2, 2)
	co.Append(0, 1, 1)
	co.Append(1, 0, 1)
	co.Append(1, 1, 4)
	return co.ToCSR()
}

// sparseCubicProblem is cubicProblem on a narrow-band sparse matrix — the
// regime (little fill, symbolic work a large share of factorization) where
// refactorization pays the most.
func sparseCubicProblem(n int, seed int64) (*Problem, []float64) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: n, Band: 8, PerRow: 3, Margin: 0.1, Negative: true, Seed: seed})
	xtrue := make([]float64, n)
	for i := range xtrue {
		xtrue[i] = 0.5 + 0.4*math.Sin(float64(i)*0.05)
	}
	b := make([]float64, n)
	var c vec.Counter
	a.MulVec(b, xtrue, &c)
	for i := range b {
		b[i] += xtrue[i] * xtrue[i] * xtrue[i]
	}
	return &Problem{
		A: a,
		Phi: Diagonal{
			Phi:  func(_ int, v float64) float64 { return v * v * v },
			DPhi: func(_ int, v float64) float64 { return 3 * v * v },
		},
		B: b,
	}, xtrue
}

// TestNewtonRefactorFlopReduction: across a multi-step Newton solve the
// persistent sessions must cut the total factorization flops at least in
// half relative to the per-step Factor baseline, without changing the
// solution or the outer path.
func TestNewtonRefactorFlopReduction(t *testing.T) {
	p, xtrue := sparseCubicProblem(600, 11)
	solver := &splu.SparseLU{PivotTol: 0.1}
	opt := Options{NewtonTol: 1e-12, Bands: 4}
	var c1, c2 vec.Counter
	res, err := SolveSequential(p, solver, opt, &c1)
	if err != nil {
		t.Fatal(err)
	}
	optBase := opt
	optBase.NoRefactor = true
	base, err := SolveSequential(p, solver, optBase, &c2)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewtonIterations != base.NewtonIterations {
		t.Fatalf("outer path changed: %d vs %d Newton steps", res.NewtonIterations, base.NewtonIterations)
	}
	if res.NewtonIterations < 5 {
		t.Fatalf("too few Newton steps (%d) to exercise amortization", res.NewtonIterations)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xtrue[i]) > 1e-7*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xtrue[i])
		}
	}
	if res.FactorFlops <= 0 || base.FactorFlops <= 0 {
		t.Fatalf("FactorFlops not reported: session %v, baseline %v", res.FactorFlops, base.FactorFlops)
	}
	if 2*res.FactorFlops > base.FactorFlops {
		t.Fatalf("refactorization saved less than 2x: session %v, baseline %v (ratio %.2f)",
			res.FactorFlops, base.FactorFlops, base.FactorFlops/res.FactorFlops)
	}
}

// TestNewtonDistributedRefactorFlopReduction: the same economy through the
// distributed sessions on a simulated grid.
func TestNewtonDistributedRefactorFlopReduction(t *testing.T) {
	p, xtrue := sparseCubicProblem(400, 12)
	opt := Options{
		NewtonTol: 1e-12,
		Inner:     core.Options{Tol: 1e-10, Overlap: 8, Solver: &splu.SparseLU{PivotTol: 0.1}},
	}
	res, err := SolveDistributed(newLan4, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	optBase := opt
	optBase.NoRefactor = true
	base, err := SolveDistributed(newLan4, p, optBase)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xtrue[i]) > 1e-6*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xtrue[i])
		}
	}
	if 2*res.FactorFlops > base.FactorFlops {
		t.Fatalf("refactorization saved less than 2x: session %v, baseline %v (ratio %.2f)",
			res.FactorFlops, base.FactorFlops, base.FactorFlops/res.FactorFlops)
	}
	if res.Time >= base.Time {
		t.Fatalf("virtual time did not improve: session %v, baseline %v", res.Time, base.Time)
	}
}

// newLan4 builds a fresh 4-host LAN per call (sessions need a new platform
// for every inner Resolve).
func newLan4() (*vgrid.Platform, []*vgrid.Host) {
	pl := vgrid.NewPlatform()
	var hosts []*vgrid.Host
	var nics []*vgrid.Link
	for i := 0; i < 4; i++ {
		hosts = append(hosts, pl.AddHost(string(rune('a'+i)), 1e9, 0))
		nics = append(nics, vgrid.NewLink(string(rune('a'+i)), 25e-6, 1.25e7))
	}
	for i := range hosts {
		for j := i + 1; j < len(hosts); j++ {
			pl.SetRoute(hosts[i], hosts[j], nics[i], nics[j])
		}
	}
	return pl, hosts
}

// TestNewtonTwoStage runs Newton with two-stage inner multisplitting solves,
// sequentially and on the grid: the band preconditioners refresh through the
// frozen Jacobian pattern each Newton step, replacing every exact band
// factorization, and the solution still matches the manufactured one.
func TestNewtonTwoStage(t *testing.T) {
	inner := core.Options{
		Tol:      1e-11,
		TwoStage: core.TwoStage{InnerIters: 4, PrecondBand: 4},
	}

	t.Run("sequential", func(t *testing.T) {
		p, xtrue := cubicProblem(500, 1)
		var c vec.Counter
		res, err := SolveSequential(p, &splu.SparseLU{}, Options{NewtonTol: 1e-10, Inner: inner}, &c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.X {
			if math.Abs(res.X[i]-xtrue[i]) > 1e-7*(1+math.Abs(xtrue[i])) {
				t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xtrue[i])
			}
		}
		c = vec.Counter{}
		exact, err := SolveSequential(p, &splu.SparseLU{}, Options{NewtonTol: 1e-10}, &c)
		if err != nil {
			t.Fatal(err)
		}
		// Narrow band factors in place of exact LU: less factorization work.
		if res.FactorFlops >= exact.FactorFlops {
			t.Fatalf("two-stage factor flops %g not below exact %g",
				res.FactorFlops, exact.FactorFlops)
		}
	})

	t.Run("distributed", func(t *testing.T) {
		p, xtrue := cubicProblem(600, 5)
		newPlat := func() (*vgrid.Platform, []*vgrid.Host) {
			pl := vgrid.NewPlatform()
			var hosts []*vgrid.Host
			var nics []*vgrid.Link
			for i := 0; i < 4; i++ {
				hosts = append(hosts, pl.AddHost(string(rune('a'+i)), 1e9, 0))
				nics = append(nics, vgrid.NewLink(string(rune('a'+i)), 25e-6, 1.25e7))
			}
			for i := range hosts {
				for j := i + 1; j < len(hosts); j++ {
					pl.SetRoute(hosts[i], hosts[j], nics[i], nics[j])
				}
			}
			return pl, hosts
		}
		res, err := SolveDistributed(newPlat, p, Options{NewtonTol: 1e-9, Inner: inner})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.X {
			if math.Abs(res.X[i]-xtrue[i]) > 1e-6*(1+math.Abs(xtrue[i])) {
				t.Fatalf("x[%d] = %v, want %v", i, res.X[i], xtrue[i])
			}
		}
		if res.Time <= 0 {
			t.Fatal("no virtual time accumulated")
		}
	})
}
