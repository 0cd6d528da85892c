package gen

// The generators as they were before rows were written straight into CSR:
// each row's column set is a map, its keys are sorted by sortedKeys, and
// every entry goes through a COO triplet list that ToCSR re-sorts. Kept
// verbatim (bar the names, and the float64 conversions that keep its
// multiply-adds unfused as the generators' are) as the oracle the production
// generators must reproduce bit for bit (TestGeneratorsMatchReference) and as
// the baseline of the generator benchmarks.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/sparse"
)

func refDiagDominant(o DiagDominantOpts) *sparse.CSR {
	o.defaults()
	n := o.N
	rng := rand.New(rand.NewSource(o.Seed))
	co := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		cols := map[int]bool{}
		if i > 0 {
			cols[i-1] = true
		}
		if i < n-1 {
			cols[i+1] = true
		}
		// Cap the target by the columns actually reachable inside the band
		// (rows near the boundary have fewer candidates).
		lo, hi := i-o.Band, i+o.Band
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		want := o.PerRow
		if avail := hi - lo; avail < want {
			want = avail
		}
		for len(cols) < want {
			off := rng.Intn(2*o.Band+1) - o.Band
			j := i + off
			if j == i || j < 0 || j >= n {
				continue
			}
			cols[j] = true
		}
		sum := 0.0
		for _, j := range refSortedKeys(cols) {
			var v float64
			if o.Negative {
				v = -(0.05 + float64(0.95*rng.Float64())) // in [-1,-0.05)
			} else {
				v = float64(2*float64(rng.Float64())) - 1 // in [-1,1)
				if v == 0 {
					v = 0.5
				}
			}
			co.Append(i, j, v)
			sum += math.Abs(v)
		}
		co.Append(i, i, (1+o.Margin)*sum)
	}
	return co.ToCSR()
}

func refCageLike(n int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	co := sparse.NewCOO(n, n)
	k := int(math.Sqrt(float64(n)))
	if k < 2 {
		k = 2
	}
	offsets := []int{-k * 2, -k, -2, -1, 1, 2, k, k * 2}
	for i := 0; i < n; i++ {
		// Deterministic structural couplings plus a few random ones.
		cols := map[int]bool{}
		for _, off := range offsets {
			j := i + off
			if j >= 0 && j < n && j != i {
				cols[j] = true
			}
		}
		extra := 5
		for e := 0; e < extra; e++ {
			j := rng.Intn(n)
			if j != i {
				cols[j] = true
			}
		}
		// Substochastic off-diagonal mass: rows sum to 1−δ with δ≈0.1.
		delta := 0.08 + float64(0.04*rng.Float64())
		mass := 1 - delta
		order := refSortedKeys(cols)
		weights := make([]float64, len(order))
		wsum := 0.0
		for k := range order {
			w := 0.1 + float64(rng.Float64())
			weights[k] = w
			wsum += w
		}
		for k, j := range order {
			co.Append(i, j, -mass*weights[k]/wsum)
		}
		co.Append(i, i, 1)
	}
	return co.ToCSR()
}

func refPoisson2D(nx, ny int) *sparse.CSR {
	n := nx * ny
	co := sparse.NewCOO(n, n)
	idx := func(i, j int) int { return i*ny + j }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			r := idx(i, j)
			co.Append(r, r, 4)
			if i > 0 {
				co.Append(r, idx(i-1, j), -1)
			}
			if i < nx-1 {
				co.Append(r, idx(i+1, j), -1)
			}
			if j > 0 {
				co.Append(r, idx(i, j-1), -1)
			}
			if j < ny-1 {
				co.Append(r, idx(i, j+1), -1)
			}
		}
	}
	return co.ToCSR()
}

func refPoisson3D(nx, ny, nz int) *sparse.CSR {
	n := nx * ny * nz
	co := sparse.NewCOO(n, n)
	idx := func(i, j, k int) int { return (i*ny+j)*nz + k }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				r := idx(i, j, k)
				co.Append(r, r, 6)
				if i > 0 {
					co.Append(r, idx(i-1, j, k), -1)
				}
				if i < nx-1 {
					co.Append(r, idx(i+1, j, k), -1)
				}
				if j > 0 {
					co.Append(r, idx(i, j-1, k), -1)
				}
				if j < ny-1 {
					co.Append(r, idx(i, j+1, k), -1)
				}
				if k > 0 {
					co.Append(r, idx(i, j, k-1), -1)
				}
				if k < nz-1 {
					co.Append(r, idx(i, j, k+1), -1)
				}
			}
		}
	}
	return co.ToCSR()
}

func refTridiag(n int, a, b, c float64) *sparse.CSR {
	co := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			co.Append(i, i-1, a)
		}
		co.Append(i, i, b)
		if i < n-1 {
			co.Append(i, i+1, c)
		}
	}
	return co.ToCSR()
}

// refSortedKeys returns the keys of a column set in increasing order, so value
// draws from the seeded RNG happen in a deterministic sequence.
func refSortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func refRandomDominant(n int, perRow int, margin float64, rng *rand.Rand) *sparse.CSR {
	if perRow < 1 {
		perRow = 1
	}
	co := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		cols := map[int]bool{}
		want := perRow
		if want > n-1 {
			want = n - 1
		}
		for len(cols) < want {
			j := rng.Intn(n)
			if j != i {
				cols[j] = true
			}
		}
		sum := 0.0
		for _, j := range refSortedKeys(cols) {
			v := rng.NormFloat64()
			if v == 0 {
				v = 1
			}
			co.Append(i, j, v)
			sum += math.Abs(v)
		}
		sign := 1.0
		if rng.Intn(2) == 0 {
			sign = -1
		}
		co.Append(i, i, sign*(1+margin)*(sum+0.1))
	}
	return co.ToCSR()
}

// sameBits reports how got differs from the reference want in shape, RowPtr,
// ColInd or the bits of Val, or nil when they are the same matrix bit for
// bit.
func sameBits(got, want *sparse.CSR) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape %dx%d, reference %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if len(got.RowPtr) != len(want.RowPtr) || len(got.ColInd) != len(want.ColInd) || len(got.Val) != len(want.Val) {
		return fmt.Errorf("array lengths %d/%d/%d, reference %d/%d/%d", len(got.RowPtr), len(got.ColInd), len(got.Val),
			len(want.RowPtr), len(want.ColInd), len(want.Val))
	}
	for i := range got.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			return fmt.Errorf("RowPtr[%d] = %d, reference %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for p := range got.ColInd {
		if got.ColInd[p] != want.ColInd[p] {
			return fmt.Errorf("ColInd[%d] = %d, reference %d", p, got.ColInd[p], want.ColInd[p])
		}
		if math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
			return fmt.Errorf("Val[%d] = %v, reference %v", p, got.Val[p], want.Val[p])
		}
	}
	return nil
}

// refSeeds is how many seeds TestGeneratorsMatchReference runs per shape.
const refSeeds = 20

// The DiagDominant shapes of the benchmark workloads and the experiments
// (lan_sync_wideband, wan_async_narrowband and wan_async_twostage at full
// size; experiments.Gen500k and Gen100k at scales 64 and 32), then the edge
// cases: the tiniest dimensions, a band as wide as the matrix or wider, a
// PerRow above the columns the band offers, and both sign patterns.
var diagShapes = []struct {
	name string
	o    DiagDominantOpts
}{
	{"wan_async_narrowband", DiagDominantOpts{N: 20000, Band: 12, PerRow: 7}},
	{"lan_sync_wideband", DiagDominantOpts{N: 10000, Band: 120, PerRow: 10, Margin: 0.002, Negative: true}},
	{"wan_async_twostage", DiagDominantOpts{N: 12000, Band: 220, PerRow: 10, Negative: true}},
	{"gen500k/64", DiagDominantOpts{N: 500000 / 64, Band: 12, PerRow: 7, Margin: 0.4}},
	{"gen500k/32", DiagDominantOpts{N: 500000 / 32, Band: 12, PerRow: 7, Margin: 0.4}},
	{"gen100k/64", DiagDominantOpts{N: 100000 / 64, Band: 960 / 64, PerRow: 10, Margin: 0.002, Negative: true}},
	{"defaults", DiagDominantOpts{N: 500}},
	{"N=1", DiagDominantOpts{N: 1}},
	{"N=2", DiagDominantOpts{N: 2}},
	{"N=3", DiagDominantOpts{N: 3, Negative: true}},
	{"N=3 band 1 perRow 1", DiagDominantOpts{N: 3, Band: 1, PerRow: 1}},
	{"band = N", DiagDominantOpts{N: 40, Band: 40, PerRow: 12}},
	{"band > N", DiagDominantOpts{N: 25, Band: 300, PerRow: 8, Negative: true}},
	{"perRow > band", DiagDominantOpts{N: 60, Band: 2, PerRow: 9}},
	{"perRow > N", DiagDominantOpts{N: 7, Band: 10, PerRow: 30, Negative: true}},
	{"perRow 1", DiagDominantOpts{N: 50, Band: 3, PerRow: 1, Margin: 0.01}},
	{"mixed wide", DiagDominantOpts{N: 900, Band: 150, PerRow: 6, Margin: 0.1}},
}

// TestGeneratorsMatchReference: every generator writes, for each shape and
// seed, the matrix its COO-built reference wrote: RowPtr, ColInd and the bits
// of every value. RandomDominant also leaves the caller's RNG where the
// reference leaves it.
func TestGeneratorsMatchReference(t *testing.T) {
	check := func(name string, got, want *sparse.CSR) {
		t.Helper()
		if err := sameBits(got, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, sh := range diagShapes {
		for s := 0; s < refSeeds; s++ {
			o := sh.o
			o.Seed = int64(s)*7919 + 1
			check(fmt.Sprintf("DiagDominant %s seed %d", sh.name, o.Seed), DiagDominant(o), refDiagDominant(o))
		}
	}
	for _, paper := range []DiagDominantOpts{
		{N: 500000 / 64, Band: 12, PerRow: 7, Margin: 0.4, Seed: 500},
		{N: 100000 / 64, Band: 960 / 64, PerRow: 10, Margin: 0.002, Negative: true, Seed: 100},
	} {
		check(fmt.Sprintf("DiagDominant %+v", paper), DiagDominant(paper), refDiagDominant(paper))
	}

	// The cage stand-ins at scales 64 and 32 (experiments.Cage10Like to
	// Cage12Like), wan_cage_exchange's 178 rows and its 40-row floor, and
	// matrices too small for the structural offsets (n < 4).
	for _, n := range []int{1, 2, 3, 4, 5, 9, 40, 178, 11397 / 32, 39082 / 64, 39082 / 32, 130228 / 64, 130228 / 32} {
		for s := 0; s < refSeeds; s++ {
			seed := int64(s)*104729 + 3
			check(fmt.Sprintf("CageLike(%d, %d)", n, seed), CageLike(n, seed), refCageLike(n, seed))
		}
	}
	for _, p := range [][2]int{{0, 0}, {0, 4}, {1, 1}, {1, 6}, {6, 1}, {2, 3}, {13, 11}, {40, 40}, {120, 60}} {
		check(fmt.Sprintf("Poisson2D(%d, %d)", p[0], p[1]), Poisson2D(p[0], p[1]), refPoisson2D(p[0], p[1]))
	}
	for _, p := range [][3]int{{0, 3, 3}, {1, 1, 1}, {1, 3, 1}, {2, 1, 3}, {3, 4, 5}, {4, 1, 1}, {16, 16, 16}} {
		check(fmt.Sprintf("Poisson3D%v", p), Poisson3D(p[0], p[1], p[2]), refPoisson3D(p[0], p[1], p[2]))
	}
	negZero := math.Copysign(0, -1)
	for _, n := range []int{0, 1, 2, 3, 4, 100} {
		for _, v := range [][3]float64{{-1, 4, -1}, {-1, 2, -3}, {0, 2, 0}, {negZero, 1, negZero}, {1, 0, 1}} {
			check(fmt.Sprintf("Tridiag(%d, %v)", n, v), Tridiag(n, v[0], v[1], v[2]), refTridiag(n, v[0], v[1], v[2]))
		}
	}
	for _, n := range []int{0, 1, 2, 3, 6, 40, 300} {
		for _, perRow := range []int{0, 1, 3, 10, 500} {
			for s := 0; s < refSeeds; s++ {
				rng, ref := rand.New(rand.NewSource(int64(s))), rand.New(rand.NewSource(int64(s)))
				name := fmt.Sprintf("RandomDominant(%d, %d) seed %d", n, perRow, s)
				check(name, RandomDominant(n, perRow, 0.2, rng), refRandomDominant(n, perRow, 0.2, ref))
				if a, b := rng.Int63(), ref.Int63(); a != b {
					t.Errorf("%s: the caller's RNG is left at %d, reference %d", name, a, b)
				}
			}
		}
	}
}

// csrBytes is what a matrix holds: its three arrays.
func csrBytes(a *sparse.CSR) uint64 {
	return 8 * uint64(len(a.RowPtr)+len(a.ColInd)+len(a.Val))
}

// TestGeneratorAllocBudget: a generator allocates its RNG, the matrix, its
// three arrays presized once and one row of scratch — a fixed handful of
// objects whatever n, and at most 1.3× the bytes the matrix keeps. A triplet
// list, a per-row map or arrays grown by append would each break both.
func TestGeneratorAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name       string
		gen        func() *sparse.CSR
		maxObjects float64
	}{
		{"DiagDominant narrowband", func() *sparse.CSR { return DiagDominant(diagShapes[0].o) }, 7},
		{"DiagDominant wideband", func() *sparse.CSR { return DiagDominant(diagShapes[1].o) }, 7},
		{"DiagDominant twostage", func() *sparse.CSR { return DiagDominant(diagShapes[2].o) }, 7},
		{"DiagDominant chain only", func() *sparse.CSR { return DiagDominant(DiagDominantOpts{N: 20000, Band: 3, PerRow: 1}) }, 7},
		{"CageLike", func() *sparse.CSR { return CageLike(130228/8, 1012) }, 7},
		{"Poisson2D", func() *sparse.CSR { return Poisson2D(120, 120) }, 4},
		{"Poisson3D", func() *sparse.CSR { return Poisson3D(16, 16, 16) }, 4},
		{"Tridiag", func() *sparse.CSR { return Tridiag(20000, -1, 4, -1) }, 4},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		a := tc.gen()
		runtime.ReadMemStats(&after)
		bytes, held := after.TotalAlloc-before.TotalAlloc, csrBytes(a)
		objects := testing.AllocsPerRun(3, func() { tc.gen() })
		t.Logf("%s: %d bytes for %d held (%.3fx), %v objects", tc.name, bytes, held, float64(bytes)/float64(held), objects)
		if 10*bytes > 13*held {
			t.Errorf("%s allocated %d bytes to keep %d, budget is 1.3x", tc.name, bytes, held)
		}
		if objects > tc.maxObjects {
			t.Errorf("%s allocated %v objects, budget is %v", tc.name, objects, tc.maxObjects)
		}
	}
}

// BenchmarkDiagDominant times the workloads' DiagDominant shapes, production
// against reference:
//
//	go test -run '^$' -bench 'DiagDominant|CageLike' -benchmem ./internal/gen
func BenchmarkDiagDominant(b *testing.B) {
	for _, sh := range diagShapes[:3] {
		o := sh.o
		o.Seed = 1000
		b.Run(sh.name+"/prod", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DiagDominant(o)
			}
		})
		b.Run(sh.name+"/ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refDiagDominant(o)
			}
		})
	}
}

// BenchmarkCageLike times the cage12 stand-in at scale 64 (paper_table3's
// largest matrix) and at scale 8, production against reference.
func BenchmarkCageLike(b *testing.B) {
	for _, n := range []int{130228 / 64, 130228 / 8} {
		b.Run(fmt.Sprintf("n=%d/prod", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				CageLike(n, 1012)
			}
		})
		b.Run(fmt.Sprintf("n=%d/ref", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refCageLike(n, 1012)
			}
		})
	}
}
