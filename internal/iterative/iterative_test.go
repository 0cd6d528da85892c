package iterative

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/splu"
	"repro/internal/vec"
)

func TestPowerMethodKnownMatrix(t *testing.T) {
	// Diagonal matrix: spectral radius equals the largest |entry|.
	d := []float64{0.3, -0.9, 0.5}
	apply := func(y, x []float64) {
		for i := range x {
			y[i] = d[i] * x[i]
		}
	}
	rho, ok := PowerMethod(3, apply, 2000, 1e-12)
	if !ok {
		t.Fatal("power method did not stabilize")
	}
	if math.Abs(rho-0.9) > 1e-6 {
		t.Fatalf("rho = %v, want 0.9", rho)
	}
}

func TestPowerMethodZeroOperator(t *testing.T) {
	apply := func(y, x []float64) { vec.Zero(y) }
	rho, ok := PowerMethod(4, apply, 100, 1e-10)
	if !ok || rho != 0 {
		t.Fatalf("rho = %v ok=%v, want 0 true", rho, ok)
	}
}

func TestSplittingOperatorContractiveForDominant(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 120, Seed: 7})
	var c vec.Counter
	apply, err := SplittingOperator(a, 30, 60, &splu.SparseLU{}, &c)
	if err != nil {
		t.Fatal(err)
	}
	rho, _ := PowerMethod(a.Rows, apply, 3000, 1e-10)
	if rho >= 1 {
		t.Fatalf("rho = %v, want < 1 for dominant matrix", rho)
	}
}

func TestAbsSplittingOperatorDominatesPlain(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 60, Seed: 8})
	var c vec.Counter
	plain, err := SplittingOperator(a, 20, 40, &splu.SparseLU{}, &c)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := AbsSplittingOperator(a, 20, 40, &splu.SparseLU{}, &c)
	if err != nil {
		t.Fatal(err)
	}
	rp, _ := PowerMethod(a.Rows, plain, 3000, 1e-10)
	ra, _ := PowerMethod(a.Rows, abs, 3000, 1e-10)
	if ra < rp-1e-8 {
		t.Fatalf("rho(|T|)=%v < rho(T)=%v, impossible", ra, rp)
	}
	if ra >= 1 {
		t.Fatalf("rho(|T|)=%v, want < 1 (Theorem 1 asynchronous condition)", ra)
	}
}

// Property: the splitting operator satisfies the fixed-point equation
// x* = T x* + M⁻¹ b at the true solution.
func TestSplittingFixedPointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		a := gen.RandomDominant(n, 3, 0.4, rng)
		b, xtrue := gen.RHSForSolution(a)
		r0 := rng.Intn(n / 2)
		r1 := r0 + 1 + rng.Intn(n-r0-1)
		var c vec.Counter
		apply, err := SplittingOperator(a, r0, r1, &splu.SparseLU{}, &c)
		if err != nil {
			return false
		}
		// Tx* + M⁻¹b should equal x*. Compute M⁻¹b via the operator pieces:
		// build it by applying to zero with b folded in manually:
		// y = T·x* ; then residual check x* − y should equal M⁻¹ b.
		y := make([]float64, n)
		apply(y, xtrue)
		// Verify A(x*) = b ⟺ M x* − N x* = b ⟺ x* − T x* = M⁻¹ b.
		// We check M(x* − y) = b.
		diffv := make([]float64, n)
		vec.Sub(diffv, xtrue, y, &c)
		// M·diffv: block rows from A, point diagonal elsewhere.
		mt := make([]float64, n)
		diag := a.Diagonal()
		for i := 0; i < n; i++ {
			if i >= r0 && i < r1 {
				s := 0.0
				for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
					j := a.ColInd[p]
					if j >= r0 && j < r1 {
						s += a.Val[p] * diffv[j]
					}
				}
				mt[i] = s
			} else {
				mt[i] = diag[i] * diffv[i]
			}
		}
		for i := range mt {
			if math.Abs(mt[i]-b[i]) > 1e-6*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
