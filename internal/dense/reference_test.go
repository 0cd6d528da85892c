package dense

// The band kernels as they were before the direct-index rework: every element
// read and written through the accessors at2/set2 (two band tests, an add and
// a multiply per element) and every row of U over the full storage width
// kv = kl+ku. The loops are kept as the oracle TestBandLUMatchesReference
// holds the production code to, bit for bit and flop for flop — which also
// holds the solve form's skipping of exact zeros — and as the "ref" side of
// BenchmarkBandSolve; their one change is the float64(a*b) form of
// each multiply-add, so that neither side fuses. Nothing outside this file
// uses them.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/vec"
)

func refFactorBandInPlace(b *Band, piv []int) (float64, error) {
	n, kl, ku := b.N, b.KL, b.KU
	flops := 0.0
	// Effective upper bandwidth after pivoting grows to kl+ku.
	kv := kl + ku
	for k := 0; k < n; k++ {
		// Pivot search among rows k..min(k+kl, n-1) in column k.
		p := k
		best := math.Abs(b.at2(k, k, kv))
		iMax := k + kl
		if iMax > n-1 {
			iMax = n - 1
		}
		for i := k + 1; i <= iMax; i++ {
			if a := math.Abs(b.at2(i, k, kv)); a > best {
				best, p = a, i
			}
		}
		if best == 0 {
			return 0, ErrSingular
		}
		piv[k] = p
		jMax := k + kv
		if jMax > n-1 {
			jMax = n - 1
		}
		if p != k {
			for j := k; j <= jMax; j++ {
				vk := b.at2(k, j, kv)
				vp := b.at2(p, j, kv)
				b.set2(k, j, vp, kv)
				b.set2(p, j, vk, kv)
			}
		}
		pivot := b.at2(k, k, kv)
		for i := k + 1; i <= iMax; i++ {
			l := b.at2(i, k, kv) / pivot
			b.set2(i, k, l, kv)
			if l == 0 {
				continue
			}
			for j := k + 1; j <= jMax; j++ {
				b.set2(i, j, b.at2(i, j, kv)-float64(l*b.at2(k, j, kv)), kv)
			}
			flops += 2 * float64(jMax-k)
		}
	}
	return flops, nil
}

// at2/set2 access the factored layout where the upper bandwidth is kv=kl+ku.
func (b *Band) at2(i, j, kv int) float64 {
	if i-j > b.KL || j-i > kv {
		return 0
	}
	return b.Data[(b.KL+b.KU+i-j)+j*b.stride]
}

func (b *Band) set2(i, j int, v float64, kv int) {
	if i-j > b.KL || j-i > kv {
		if v != 0 {
			panic("dense: band fill outside storage")
		}
		return
	}
	b.Data[(b.KL+b.KU+i-j)+j*b.stride] = v
}

func (f *BandLU) refSolve(x, b0 []float64, c *vec.Counter) {
	b := f.b
	n, kl, ku := b.N, b.KL, b.KU
	kv := kl + ku
	if len(x) != n || len(b0) != n {
		panic("dense: BandLU Solve shape mismatch")
	}
	copy(x, b0)
	// Forward: apply row swaps and L (unit diagonal) in elimination order.
	for k := 0; k < n; k++ {
		if p := f.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
		iMax := k + kl
		if iMax > n-1 {
			iMax = n - 1
		}
		for i := k + 1; i <= iMax; i++ {
			x[i] -= float64(b.at2(i, k, kv) * x[k])
		}
	}
	// Back substitution with U (bandwidth kv).
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		jMax := i + kv
		if jMax > n-1 {
			jMax = n - 1
		}
		for j := i + 1; j <= jMax; j++ {
			s -= float64(b.at2(i, j, kv) * x[j])
		}
		x[i] = s / b.at2(i, i, kv)
	}
	c.Add(2 * float64(n) * float64(kl+kv+1))
}

// bandCase is one matrix of the oracle's list: n, the two bandwidths and a
// fill function giving A(i,j) inside the band.
type bandCase struct {
	name      string
	n, kl, ku int
	at        func(rng *rand.Rand, i, j int) float64
	swaps     bool // the elimination must swap rows
	narrow    bool // U's farthest non-zero must lie strictly between ku and kv
	skips     bool // the elimination must meet exact-zero multipliers
	// refill gives the Refactor stage's values when they are not at's: a
	// refactor that moves U's or L's non-zeros must move what Solve reads.
	refill func(rng *rand.Rand, i, j int) float64
}

// weakDiag gives off-diagonal entries of magnitude up to 1 and a diagonal a
// hundred times smaller, so partial pivoting swaps rows in most columns.
func weakDiag(rng *rand.Rand, i, j int) float64 {
	if i == j {
		return 0.01 * (rng.Float64() + 0.1)
	}
	return 2*rng.Float64() - 1
}

// evenDiag puts the diagonal in [0.5, 1.5) against off-diagonals in [-1, 1):
// some columns swap, and a triangular band stays far from singular (under
// weakDiag its elimination meets an exact zero pivot).
func evenDiag(rng *rand.Rand, i, j int) float64 {
	if i == j {
		return 0.5 + rng.Float64()
	}
	return 2*rng.Float64() - 1
}

// strongDiag is diagonally dominant: no swap fires.
func strongDiag(rng *rand.Rand, i, j int) float64 {
	if i == j {
		return 50 + rng.Float64()
	}
	return 2*rng.Float64() - 1
}

// fewSwaps is strongDiag except in every tenth column j, whose diagonal is
// weak and whose first sub-diagonal entry is the largest of the column: the
// elimination swaps rows j and j+1 there and nowhere else, so U grows one
// column past ku and stays short of kv. Row j's first super-diagonal entry,
// the next column's pivot once the rows have swapped, is strong.
func fewSwaps(rng *rand.Rand, i, j int) float64 {
	switch {
	case j%10 == 0 && i == j:
		return 0.01 * (rng.Float64() + 0.1)
	case j%10 == 0 && i == j+1:
		return 5 + rng.Float64()
	case j%10 == 1 && i == j-1:
		return 50 + rng.Float64()
	}
	return strongDiag(rng, i, j)
}

// zeroMultiplier plants exact zeros in the first sub-diagonal of every third
// column, so the elimination meets l == 0 (skipped, not counted) next to
// non-zero multipliers; a weak diagonal elsewhere keeps swaps firing.
func zeroMultiplier(rng *rand.Rand, i, j int) float64 {
	if i == j+1 && j%3 == 0 {
		return 0
	}
	if i == j && j%3 == 0 {
		return 10 + rng.Float64()
	}
	return weakDiag(rng, i, j)
}

// tiedPivots makes every entry of the first column ±1, so the pivot search
// meets candidates of equal magnitude and must keep the first.
func tiedPivots(rng *rand.Rand, i, j int) float64 {
	if j == 0 {
		return float64(2*rng.Intn(2) - 1)
	}
	return weakDiag(rng, i, j)
}

// sparseStrong keeps about one in six off-diagonal entries of strongDiag and
// sets the others to exact zero, as the band preconditioner of a scattered
// matrix does (the wan_async_twostage bands store about 15 % of their slots):
// no swap, and most multipliers and U entries are exact zeros.
func sparseStrong(rng *rand.Rand, i, j int) float64 {
	if i != j && rng.Intn(6) != 0 {
		return 0
	}
	return strongDiag(rng, i, j)
}

// sparseWeak is sparseStrong's pattern over weakDiag's values: the columns
// that hold an off-diagonal entry swap rows.
func sparseWeak(rng *rand.Rand, i, j int) float64 {
	if i != j && rng.Intn(6) != 0 {
		return 0
	}
	return weakDiag(rng, i, j)
}

func (bc bandCase) build(seed int64) *Band { return bc.fill(bc.at, seed) }

func (bc bandCase) fill(at func(rng *rand.Rand, i, j int) float64, seed int64) *Band {
	rng := rand.New(rand.NewSource(seed))
	b := NewBand(bc.n, bc.kl, bc.ku)
	for i := 0; i < bc.n; i++ {
		for j := max(0, i-bc.kl); j <= min(bc.n-1, i+bc.ku); j++ {
			b.Set(i, j, at(rng, i, j))
		}
	}
	return b
}

// checkSolveForm fails unless f's solve form lists exactly the stored L and
// U entries that are != 0, read through the accessor at2, in the order Solve
// walks them: L column by column, rows ascending, then U row by row, columns
// ascending, each with its value's bits.
func checkSolveForm(t *testing.T, stage string, f *BandLU) {
	t.Helper()
	b := f.b
	n, kv := b.N, b.KL+b.KU
	var ptr, idx []int32
	var val []float64
	add := func(i int, v float64) {
		if v != 0 {
			idx, val = append(idx, int32(i)), append(val, v)
		}
	}
	for k := 0; k < n; k++ {
		ptr = append(ptr, int32(len(idx)))
		for i := k + 1; i <= min(k+b.KL, n-1); i++ {
			add(i, b.at2(i, k, kv))
		}
	}
	for i := 0; i < n; i++ {
		ptr = append(ptr, int32(len(idx)))
		for j := i + 1; j <= min(i+kv, n-1); j++ {
			add(j, b.at2(i, j, kv))
		}
	}
	ptr = append(ptr, int32(len(idx)))
	for _, part := range []struct {
		name      string
		got, want []int32
	}{{"bounds", f.ptr, ptr}, {"indices", f.idx, idx}} {
		if len(part.got) != len(part.want) {
			t.Fatalf("%s: solve form holds %d %s, want %d", stage, len(part.got), part.name, len(part.want))
		}
		for k := range part.got {
			if part.got[k] != part.want[k] {
				t.Fatalf("%s: solve form %s[%d] = %d, want %d", stage, part.name, k, part.got[k], part.want[k])
			}
		}
	}
	bitsEqual(t, stage+" solve form values", f.val, val)
}

// uReach returns how far right of the diagonal U's farthest entry in f's
// solve form lies, 0 when U is diagonal.
func uReach(f *BandLU) int {
	n, reach := f.b.N, 0
	for i := 0; i < n; i++ {
		for _, j := range f.idx[f.ptr[n+i]:f.ptr[n+i+1]] {
			reach = max(reach, int(j)-i)
		}
	}
	return reach
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestBandLUMatchesReference holds FactorBand, Refactor and Solve to the
// accessor-form loops above: Band.Data, the pivots, Flops and every solve
// must be Float64bits-equal, x aliasing b0 included.
func TestBandLUMatchesReference(t *testing.T) {
	cases := []bandCase{
		{name: "kl<ku", n: 60, kl: 2, ku: 5, at: weakDiag, swaps: true},
		{name: "kl>ku", n: 60, kl: 6, ku: 1, at: weakDiag, swaps: true},
		{name: "kl=0 (upper triangular band)", n: 40, kl: 0, ku: 3, at: weakDiag},
		{name: "ku=0 (lower triangular band)", n: 40, kl: 3, ku: 0, at: evenDiag, swaps: true},
		{name: "kl=ku=0 (diagonal)", n: 7, at: weakDiag},
		{name: "n=1", n: 1, at: weakDiag},
		{name: "n<=kl", n: 4, kl: 6, ku: 6, at: weakDiag, swaps: true},
		{name: "n=kl+1", n: 5, kl: 4, ku: 2, at: weakDiag, swaps: true},
		{name: "no swap", n: 50, kl: 4, ku: 4, at: strongDiag},
		{name: "exact-zero multipliers", n: 61, kl: 3, ku: 2, at: zeroMultiplier, swaps: true, skips: true},
		{name: "tied pivot candidates", n: 30, kl: 4, ku: 2, at: tiedPivots, swaps: true},
		{name: "preconditioner shape", n: 300, kl: 16, ku: 16, at: weakDiag, swaps: true},
		{name: "preconditioner shape, no swap", n: 300, kl: 16, ku: 16, at: strongDiag, refill: weakDiag},
		{name: "few swaps", n: 60, kl: 4, ku: 2, at: fewSwaps, swaps: true, narrow: true, refill: weakDiag},
		{name: "sparse preconditioner shape", n: 300, kl: 16, ku: 16, at: sparseWeak, swaps: true, skips: true},
		{name: "sparse preconditioner shape, no swap", n: 300, kl: 16, ku: 16, at: sparseStrong, skips: true, refill: sparseWeak},
		{name: "sparse refill of a full band", n: 300, kl: 16, ku: 16, at: weakDiag, swaps: true, refill: sparseStrong},
	}
	for _, bc := range cases {
		t.Run(bc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				got, want := bc.build(seed), bc.build(seed)
				wantPiv := make([]int, bc.n)
				wantFlops, err := refFactorBandInPlace(want, wantPiv)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				var c vec.Counter
				f, err := FactorBand(got, &c)
				if err != nil {
					t.Fatal(err)
				}
				checkFactors := func(stage string) {
					t.Helper()
					bitsEqual(t, stage+" Data", f.b.Data, want.Data)
					for k := range wantPiv {
						if f.piv[k] != wantPiv[k] {
							t.Fatalf("%s piv[%d] = %d, reference %d", stage, k, f.piv[k], wantPiv[k])
						}
					}
					if f.Flops != wantFlops {
						t.Fatalf("%s Flops %v, reference %v", stage, f.Flops, wantFlops)
					}
				}
				checkFactors("factor")
				checkSolveForm(t, "factor", f)
				kv, reach := bc.kl+bc.ku, uReach(f)
				switch {
				case !bc.swaps && reach > bc.ku:
					t.Fatalf("no swap, but a U entry lies %d right of the diagonal, past ku %d", reach, bc.ku)
				case bc.narrow && (reach <= bc.ku || reach >= kv):
					t.Fatalf("U reaches %d, not strictly between ku %d and kv %d", reach, bc.ku, kv)
				}
				if c.Flops() != wantFlops {
					t.Fatalf("counted %v flops, reference %v", c.Flops(), wantFlops)
				}
				if skipped := wantFlops < fullFlops(bc); skipped != bc.skips {
					t.Fatalf("multipliers skipped: %v, case wants %v (%v flops, %v with none skipped)", skipped, bc.skips, wantFlops, fullFlops(bc))
				}
				swapped := false
				for k, p := range wantPiv {
					swapped = swapped || p != k
				}
				if swapped != bc.swaps {
					t.Fatalf("rows swapped: %v, case wants %v", swapped, bc.swaps)
				}

				rng := rand.New(rand.NewSource(seed + 100))
				rhs := make([]float64, bc.n)
				for i := range rhs {
					rhs[i] = 2*rng.Float64() - 1
				}
				checkSolve := func(stage string) {
					t.Helper()
					ref := &BandLU{b: want, piv: wantPiv, Flops: wantFlops}
					wantX := make([]float64, bc.n)
					var rc, gc vec.Counter
					ref.refSolve(wantX, rhs, &rc)
					x := make([]float64, bc.n)
					f.Solve(x, rhs, &gc)
					bitsEqual(t, stage+" x", x, wantX)
					if gc.Flops() != rc.Flops() || gc.Flops() != f.SolveFlops() {
						t.Fatalf("%s solve counted %v flops, reference %v, declared %v", stage, gc.Flops(), rc.Flops(), f.SolveFlops())
					}
					// x aliasing b0.
					alias := append([]float64(nil), rhs...)
					f.Solve(alias, alias, nil)
					bitsEqual(t, stage+" aliased x", alias, wantX)
				}
				checkSolve("factor")

				// Refactor from new values in the same storage, then solve:
				// a solve form Refactor does not rebuild fails here.
				at := bc.at
				if bc.refill != nil {
					at = bc.refill
				}
				got2, want2 := bc.fill(at, seed+7), bc.fill(at, seed+7)
				copy(f.Band().Data, got2.Data)
				copy(want.Data, want2.Data)
				if wantFlops, err = refFactorBandInPlace(want, wantPiv); err != nil {
					t.Fatalf("reference refactor: %v", err)
				}
				if err := f.Refactor(nil); err != nil {
					t.Fatal(err)
				}
				checkFactors("refactor")
				checkSolveForm(t, "refactor", f)
				checkSolve("refactor")
			}
		})
	}
}

// fullFlops is what the elimination of bc counts when no multiplier is zero.
func fullFlops(bc bandCase) float64 {
	flops := 0.0
	for k := 0; k < bc.n; k++ {
		flops += 2 * float64(min(bc.kl, bc.n-1-k)) * float64(min(bc.kl+bc.ku, bc.n-1-k))
	}
	return flops
}

// TestBandLUMatchesReferenceSingular: a band with an all-zero column — the
// elimination's updates leave it zero — fails with ErrSingular where the
// reference does, and a Solve of the wrong length panics as before.
func TestBandLUMatchesReferenceSingular(t *testing.T) {
	bc := bandCase{n: 12, kl: 2, ku: 3, at: func(rng *rand.Rand, i, j int) float64 {
		if j == 6 {
			return 0
		}
		return weakDiag(rng, i, j)
	}}
	_, refErr := refFactorBandInPlace(bc.build(5), make([]int, bc.n))
	_, err := FactorBand(bc.build(5), nil)
	if !errors.Is(refErr, ErrSingular) || !errors.Is(err, ErrSingular) {
		t.Fatalf("FactorBand: %v, reference: %v, want ErrSingular from both", err, refErr)
	}
	f, err := FactorBand(bandCase{n: 5, kl: 1, ku: 1, at: strongDiag}.build(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Solve with a short x did not panic")
		}
	}()
	f.Solve(make([]float64, 4), make([]float64, 5), nil)
}

var benchSink float64

// BenchmarkBandSolve prices one BandLU.Solve per stored element of the
// factors (n·(2kl+ku+1)) on the wan_async_twostage preconditioner's shape
// (n 1200, kl = ku = 16), three times: "pivot" swaps rows in most columns,
// so U fills kv = 32 columns; "noswap" is diagonally dominant, so U is
// ku = 16 wide, and every slot of both is non-zero; "sparse" is the workload's
// own band, the |i-j| <= 16 band of its generator at n 1200, whose factors
// are mostly exact zeros. "direct" is the production kernel, "ref" the
// accessor form above, which always runs the full storage width.
func BenchmarkBandSolve(b *testing.B) {
	for _, shape := range []struct {
		name string
		band *Band
	}{
		{"pivot", bandCase{n: 1200, kl: 16, ku: 16, at: weakDiag}.build(1)},
		{"noswap", bandCase{n: 1200, kl: 16, ku: 16, at: strongDiag}.build(1)},
		{"sparse", workloadBand()},
	} {
		f, err := FactorBand(shape.band, nil)
		if err != nil {
			b.Fatal(err)
		}
		n := f.b.N
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = float64(i%17) - 8
		}
		x := make([]float64, n)
		elems := float64(len(f.b.Data))
		for _, side := range []struct {
			name  string
			solve func(x, b0 []float64, c *vec.Counter)
		}{{"direct", f.Solve}, {"ref", f.refSolve}} {
			b.Run(shape.name+"/"+side.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					side.solve(x, rhs, nil)
				}
				benchSink = x[0]
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/elems, "ns/elem")
			})
		}
	}
}

// workloadBand is the band the wan_async_twostage preconditioner factors on
// one rank: the |i-j| <= 16 entries of the workload's generator at n 1200.
func workloadBand() *Band {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 1200, Band: 220, PerRow: 10, Negative: true, Seed: 1})
	const w = 16
	band := NewBand(a.Rows, w, w)
	for i := 0; i < a.Rows; i++ {
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			if j := a.ColInd[q]; i-j <= w && j-i <= w {
				band.Set(i, j, a.Val[q])
			}
		}
	}
	return band
}
