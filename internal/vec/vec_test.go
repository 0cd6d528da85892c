package vec

import (
	"math"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Flops() != 0 {
		t.Fatalf("zero counter Flops = %v, want 0", c.Flops())
	}
	c.Add(10)
	c.Add(5)
	if c.Flops() != 15 {
		t.Fatalf("Flops = %v, want 15", c.Flops())
	}
	c.Reset()
	if c.Flops() != 0 {
		t.Fatalf("after Reset Flops = %v, want 0", c.Flops())
	}
}

func TestNilCounterSafe(t *testing.T) {
	var c *Counter
	c.Add(5) // must not panic
	if c.Flops() != 0 {
		t.Fatalf("nil counter Flops = %v", c.Flops())
	}
	c.Reset()
}

func TestAxpy(t *testing.T) {
	var c Counter
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y, &c)
	want := []float64{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	if c.Flops() != 6 {
		t.Fatalf("flops = %v, want 6", c.Flops())
	}
}

func TestAxpyZeroAlphaNoFlops(t *testing.T) {
	var c Counter
	y := []float64{1, 2}
	Axpy(0, []float64{5, 5}, y, &c)
	if y[0] != 1 || y[1] != 2 {
		t.Fatalf("alpha=0 modified y: %v", y)
	}
	if c.Flops() != 0 {
		t.Fatalf("alpha=0 charged flops: %v", c.Flops())
	}
}

func TestAxpyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Axpy(1, []float64{1}, []float64{1, 2}, nil)
}

func TestDotAndNorms(t *testing.T) {
	var c Counter
	x := []float64{3, 4}
	if n := Norm2(x, &c); n != 5 {
		t.Fatalf("Norm2 = %v, want 5", n)
	}
	if n := NormInf([]float64{-7, 3, 6.5}, &c); n != 7 {
		t.Fatalf("NormInf = %v, want 7", n)
	}
	if n := NormInf(nil, &c); n != 0 {
		t.Fatalf("NormInf(nil) = %v, want 0", n)
	}
}

func TestDiffNormInf(t *testing.T) {
	var c Counter
	got := DiffNormInf([]float64{1, 5, -2}, []float64{1, 2, -4}, &c)
	if got != 3 {
		t.Fatalf("DiffNormInf = %v, want 3", got)
	}
}

func TestSubAddScaleFillZeroClone(t *testing.T) {
	var c Counter
	x := []float64{4, 6}
	y := []float64{1, 2}
	dst := make([]float64, 2)
	Sub(dst, x, y, &c)
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("Sub = %v", dst)
	}
	Scale(0.5, x, &c)
	if x[0] != 2 || x[1] != 3 {
		t.Fatalf("Scale = %v", x)
	}
	cl := Clone(x)
	cl[0] = 99
	if x[0] == 99 {
		t.Fatal("Clone aliases source")
	}
	Fill(x, 7)
	if x[0] != 7 || x[1] != 7 {
		t.Fatalf("Fill = %v", x)
	}
	Zero(x)
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("Zero = %v", x)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Fatal("finite slice reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Fatal("NaN not detected")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Fatal("Inf not detected")
	}
}
