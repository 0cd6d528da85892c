package nonlinear

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dense"
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

// innerTight is the inner accuracy the Newton-path tests need: the outer
// tolerance is only reachable when every Jacobian system is solved well past
// it.
var innerTight = core.Options{Tol: 1e-12}

func TestNewtonSequentialCubic(t *testing.T) {
	p, xtrue := cubicProblem(500, 1)
	res, err := SolveDistributed(newLan4, p, Options{NewtonTol: 1e-10, Inner: innerTight})
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
	res, err := SolveDistributed(newLan4, p, Options{NewtonTol: 1e-9, Inner: innerTight})
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
	res, err := SolveDistributed(newLan4, p, Options{NewtonTol: 1e-10, Inner: innerTight})
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
	_, err := SolveDistributed(newLan4, p, Options{NewtonTol: 1e-14, MaxNewton: 1})
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
// unequal hosts — and Newton reaches the answer of denseNewton, which shares
// nothing with the driver but the problem.
func TestNewtonDistributedEveryInnerOption(t *testing.T) {
	p, _ := cubicProblem(600, 7)
	want := denseNewton(t, p, 1e-10)
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
		if math.Abs(res.X[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %v, dense-LU Newton %v", i, res.X[i], want[i])
		}
	}
	if res.NewtonIterations < 2 || res.FactorFlops <= 0 {
		t.Fatalf("%d Newton steps, %v factor flops: the session did not carry over", res.NewtonIterations, res.FactorFlops)
	}
}

// denseNewton is the independent oracle: Newton from zero on p with every
// Jacobian system A + diag(φ'(x)) assembled densely and solved by dense LU.
func denseNewton(t *testing.T, p *Problem, tol float64) []float64 {
	t.Helper()
	n := p.A.Rows
	x, r, dx := make([]float64, n), make([]float64, n), make([]float64, n)
	var c vec.Counter
	for k := 0; k < 50; k++ {
		if p.Residual(r, x, &c) <= tol {
			return x
		}
		j := dense.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for q := p.A.RowPtr[i]; q < p.A.RowPtr[i+1]; q++ {
				j.Set(i, p.A.ColInd[q], p.A.Val[q])
			}
			j.Set(i, i, j.At(i, i)+p.Phi.DPhi(i, x[i]))
		}
		lu, err := dense.FactorLU(j, &c)
		if err != nil {
			t.Fatal(err)
		}
		lu.Solve(dx, r, &c)
		vec.Axpy(1, dx, x, &c)
	}
	t.Fatal("dense-LU Newton did not converge")
	return nil
}

func TestJacobianStructuralZeroDiagonal(t *testing.T) {
	// A has a structurally missing diagonal entry; the Jacobian template
	// must still place φ' there, and keep doing so across updates.
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
	tpl := newJacTemplate(p.A)
	for step := 0; step < 2; step++ {
		tpl.update(p, []float64{0, 0}, &c)
		if got := tpl.j.At(0, 0); got != 5 {
			t.Fatalf("step %d: J(0,0) = %v, want 5", step, got)
		}
		if got := tpl.j.At(1, 1); got != 9 {
			t.Fatalf("step %d: J(1,1) = %v, want 4 + 5", step, got)
		}
		if got := tpl.j.At(0, 1); got != 1 {
			t.Fatalf("step %d: J(0,1) = %v, want A's 1", step, got)
		}
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

// TestNewtonDistributedRefactorFlopReduction: across a multi-step Newton
// solve the persistent session must cut the total factorization flops at
// least in half relative to the per-step Factor baseline, and the virtual
// time with them, without changing the solution or the outer path.
func TestNewtonDistributedRefactorFlopReduction(t *testing.T) {
	p, xtrue := sparseCubicProblem(400, 12)
	opt := Options{
		NewtonTol: 1e-12,
		Inner:     core.Options{Tol: 1e-10, Overlap: 8, Solver: &splu.SparseLU{}},
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
	if res.NewtonIterations != base.NewtonIterations {
		t.Fatalf("outer path changed: %d vs %d Newton steps", res.NewtonIterations, base.NewtonIterations)
	}
	if res.NewtonIterations < 5 {
		t.Fatalf("too few Newton steps (%d) to exercise amortization", res.NewtonIterations)
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

// TestNewtonTwoStage runs Newton with two-stage inner multisplitting solves on
// the grid: the band preconditioners refresh through the frozen Jacobian
// pattern each Newton step, replacing every exact band factorization — less
// factorization work than the exact inner solves — and the solution still
// matches the manufactured one.
func TestNewtonTwoStage(t *testing.T) {
	inner := core.Options{
		Tol:      1e-11,
		TwoStage: core.TwoStage{InnerIters: 4, PrecondBand: 4},
	}
	t.Run("distributed", func(t *testing.T) {
		p, xtrue := cubicProblem(600, 5)
		res, err := SolveDistributed(newLan4, p, Options{NewtonTol: 1e-9, Inner: inner})
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
		exact, err := SolveDistributed(newLan4, p, Options{NewtonTol: 1e-9, Inner: core.Options{Tol: 1e-11}})
		if err != nil {
			t.Fatal(err)
		}
		if res.FactorFlops >= exact.FactorFlops {
			t.Fatalf("two-stage factor flops %g not below exact %g", res.FactorFlops, exact.FactorFlops)
		}
	})
}
