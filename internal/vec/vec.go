// Package vec provides dense vector kernels used throughout the solvers.
//
// Every kernel returns (or accumulates through a Counter) the number of
// floating-point operations it performed so the grid simulator can charge
// virtual compute time that is proportional to the real arithmetic done.
package vec

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Counter accumulates floating-point operation counts. The zero value is
// ready to use.
//
// Single-owner contract: a Counter is NOT safe for concurrent use. Each
// simulated process owns exactly one Counter and is its only writer; a
// compute segment handed to the parallel vgrid scheduler (Proc.ComputeFunc)
// counts into its owner's Counter, which is safe because the scheduler never
// resumes the owning process until the segment has finished. Cross-process
// totals are combined through Total, the one atomic aggregation point —
// never by sharing a Counter between processes.
type Counter struct {
	flops float64
}

// Add records n floating-point operations.
func (c *Counter) Add(n float64) {
	if c != nil {
		c.flops += n
	}
}

// Flops returns the accumulated operation count.
func (c *Counter) Flops() float64 {
	if c == nil {
		return 0
	}
	return c.flops
}

// Reset clears the accumulated count.
func (c *Counter) Reset() {
	if c != nil {
		c.flops = 0
	}
}

// Total is a concurrency-safe flop accumulator: the single designated merge
// point where per-process Counter totals are combined (e.g. into a solve
// Result), even when process bodies or compute segments finish on different
// OS threads. The zero value is ready to use. It must not be copied after
// first use (go vet's copylocks check enforces this via the embedded
// atomic.Uint64).
type Total struct {
	bits atomic.Uint64
}

// Merge atomically adds n flops to the total.
func (t *Total) Merge(n float64) {
	for {
		old := t.bits.Load()
		new_ := math.Float64bits(math.Float64frombits(old) + n)
		if t.bits.CompareAndSwap(old, new_) {
			return
		}
	}
}

// MergeCounter folds a finished process's Counter into the total.
func (t *Total) MergeCounter(c *Counter) { t.Merge(c.Flops()) }

// Value returns the accumulated total.
func (t *Total) Value() float64 {
	return math.Float64frombits(t.bits.Load())
}

// Zero sets every element of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Clone returns a newly allocated copy of x.
func Clone(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// Axpy computes y += alpha*x. x and y must have equal length.
func Axpy(alpha float64, x, y []float64, c *Counter) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: axpy length mismatch %d != %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
	c.Add(2 * float64(len(x)))
}

// Scale computes x *= alpha.
func Scale(alpha float64, x []float64, c *Counter) {
	for i := range x {
		x[i] *= alpha
	}
	c.Add(float64(len(x)))
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64, c *Counter) float64 {
	s := 0.0
	for _, v := range x {
		s += float64(v * v)
	}
	c.Add(2 * float64(len(x)))
	return math.Sqrt(s)
}

// NormInf returns the maximum absolute value of x (0 for an empty slice).
func NormInf(x []float64, c *Counter) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	c.Add(float64(len(x)))
	return m
}

// DiffNormInf returns max_i |x[i]-y[i]|.
func DiffNormInf(x, y []float64, c *Counter) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: diff length mismatch %d != %d", len(x), len(y)))
	}
	m := 0.0
	for i, v := range x {
		if a := math.Abs(v - y[i]); a > m {
			m = a
		}
	}
	c.Add(2 * float64(len(x)))
	return m
}

// Sub computes dst = x - y. All three must have equal length; dst may alias
// x or y.
func Sub(dst, x, y []float64, c *Counter) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("vec: sub length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
	c.Add(float64(len(dst)))
}

// AllFinite reports whether every element of x is finite (no NaN or Inf).
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
