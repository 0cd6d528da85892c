package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if m.At(0, 1) != 7 {
		t.Fatalf("At = %v, want 7", m.At(0, 1))
	}
	row := m.Row(0)
	row[2] = 9
	if m.At(0, 2) != 9 {
		t.Fatal("Row is not a live view")
	}
	cl := m.Clone()
	cl.Set(0, 0, 100)
	if m.At(0, 0) == 100 {
		t.Fatal("Clone aliases data")
	}
}

func TestMatrixIndexPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.Set(0, -1, 1) },
		func() { m.Row(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	// [1 2 3; 4 5 6]
	for j := 0; j < 3; j++ {
		m.Set(0, j, float64(j+1))
		m.Set(1, j, float64(j+4))
	}
	y := make([]float64, 2)
	var c vec.Counter
	m.MulVec(y, []float64{1, 1, 1}, &c)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
}

func luSolveCheck(t *testing.T, a *Matrix, xtrue []float64) {
	t.Helper()
	n := a.Rows
	var c vec.Counter
	b := make([]float64, n)
	a.MulVec(b, xtrue, &c)
	lu, err := FactorLU(a, &c)
	if err != nil {
		t.Fatalf("FactorLU: %v", err)
	}
	x := make([]float64, n)
	lu.Solve(x, b, &c)
	for i := range x {
		if math.Abs(x[i]-xtrue[i]) > 1e-8*(1+math.Abs(xtrue[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xtrue[i])
		}
	}
	if lu.Flops <= 0 && n > 1 {
		t.Fatal("factorization reported no flops")
	}
}

func TestFactorLUSmall(t *testing.T) {
	a := NewMatrix(3, 3)
	vals := [][]float64{{2, 1, 1}, {4, -6, 0}, {-2, 7, 2}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	luSolveCheck(t, a, []float64{1, -2, 3})
}

func TestFactorLUNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1)
	luSolveCheck(t, a, []float64{2, 3})
}

func TestFactorLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	var c vec.Counter
	if _, err := FactorLU(a, &c); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestFactorLUNonSquare(t *testing.T) {
	var c vec.Counter
	if _, err := FactorLU(NewMatrix(2, 3), &c); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestFactorLUDoesNotModifyInput(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 3)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 2)
	orig := a.Clone()
	var c vec.Counter
	if _, err := FactorLU(a, &c); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatal("FactorLU modified its input")
		}
	}
}

func TestFactorLURandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := rng.NormFloat64()
					a.Set(i, j, v)
					sum += math.Abs(v)
				}
			}
			a.Set(i, i, sum+1) // diagonally dominant => well conditioned
		}
		xtrue := make([]float64, n)
		for i := range xtrue {
			xtrue[i] = rng.NormFloat64()
		}
		var c vec.Counter
		b := make([]float64, n)
		a.MulVec(b, xtrue, &c)
		lu, err := FactorLU(a, &c)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		lu.Solve(x, b, &c)
		for i := range x {
			if math.Abs(x[i]-xtrue[i]) > 1e-7*(1+math.Abs(xtrue[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBandSetAtOutsideBand(t *testing.T) {
	b := NewBand(5, 1, 1)
	b.Set(2, 1, 3)
	b.Set(2, 3, 4)
	if b.At(2, 1) != 3 || b.At(2, 3) != 4 {
		t.Fatal("band entries lost")
	}
	if b.At(0, 4) != 0 {
		t.Fatal("outside-band At should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic setting outside band")
		}
	}()
	b.Set(0, 4, 1)
}

func TestFactorBandTridiagonal(t *testing.T) {
	n := 50
	b := NewBand(n, 1, 1)
	for i := 0; i < n; i++ {
		b.Set(i, i, 4)
		if i > 0 {
			b.Set(i, i-1, -1)
		}
		if i < n-1 {
			b.Set(i, i+1, -1)
		}
	}
	xtrue := make([]float64, n)
	for i := range xtrue {
		xtrue[i] = math.Sin(float64(i))
	}
	// b0 = A x
	b0 := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 4 * xtrue[i]
		if i > 0 {
			s -= xtrue[i-1]
		}
		if i < n-1 {
			s -= xtrue[i+1]
		}
		b0[i] = s
	}
	var c vec.Counter
	lu, err := FactorBand(b, &c)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	lu.Solve(x, b0, &c)
	for i := range x {
		if math.Abs(x[i]-xtrue[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xtrue[i])
		}
	}
}

func TestFactorBandPivoting(t *testing.T) {
	// Small diagonal forces pivoting into the kl fill rows.
	n := 6
	b := NewBand(n, 2, 1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		for j := i - 2; j <= i+1; j++ {
			if j < 0 || j >= n {
				continue
			}
			if i == j {
				b.Set(i, j, 1e-8) // tiny diagonal
			} else {
				b.Set(i, j, 1+rng.Float64())
			}
		}
	}
	xtrue := []float64{1, -1, 2, -2, 3, -3}
	b0 := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b0[i] += b.At(i, j) * xtrue[j]
		}
	}
	var c vec.Counter
	lu, err := FactorBand(b, &c)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	lu.Solve(x, b0, &c)
	for i := range x {
		if math.Abs(x[i]-xtrue[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v (pivoting broken)", i, x[i], xtrue[i])
		}
	}
}

func TestFactorBandSingular(t *testing.T) {
	b := NewBand(3, 1, 1)
	// Column of zeros.
	b.Set(0, 0, 1)
	b.Set(2, 2, 1)
	var c vec.Counter
	if _, err := FactorBand(b, &c); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestFactorBandRandomWide(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		kl := rng.Intn(4)
		ku := rng.Intn(4)
		b := NewBand(n, kl, ku)
		full := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := i - kl; j <= i+ku; j++ {
				if j < 0 || j >= n || j == i {
					continue
				}
				v := rng.NormFloat64()
				b.Set(i, j, v)
				full.Set(i, j, v)
				sum += math.Abs(v)
			}
			b.Set(i, i, sum+1)
			full.Set(i, i, sum+1)
		}
		xtrue := make([]float64, n)
		for i := range xtrue {
			xtrue[i] = rng.NormFloat64()
		}
		var c vec.Counter
		b0 := make([]float64, n)
		full.MulVec(b0, xtrue, &c)
		lu, err := FactorBand(b, &c)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		lu.Solve(x, b0, &c)
		for i := range x {
			if math.Abs(x[i]-xtrue[i]) > 1e-7*(1+math.Abs(xtrue[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// What follows is used by this package's tests only: building matrices entry
// by entry, right-hand sides from a known solution, and reading a band matrix
// back by coordinates.

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] += v
}

// MulVec computes y = M*x.
func (m *Matrix) MulVec(y, x []float64, c *vec.Counter) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("dense: MulVec shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	c.Add(2 * float64(m.Rows) * float64(m.Cols))
}

// At returns A(i,j), zero outside the band.
func (b *Band) At(i, j int) float64 {
	if i < 0 || i >= b.N || j < 0 || j >= b.N {
		panic("dense: band index out of range")
	}
	if i-j > b.KL || j-i > b.KU {
		return 0
	}
	return b.Data[b.Index(i, j)]
}
