package sparse_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sparse"
)

// solverWorkload is the matrix and band geometry of one of the benchmark's
// four solver workloads (bench/workloads.go): what the engine's loadBand
// hands SelectColumns.
type solverWorkload struct {
	name           string
	matrix         func(seed int64) *sparse.CSR
	ranks, overlap int
}

var solverWorkloads = []solverWorkload{
	{"lan_sync_wideband", func(seed int64) *sparse.CSR {
		return gen.DiagDominant(gen.DiagDominantOpts{N: 10000, Band: 120, PerRow: 10, Margin: 0.002, Negative: true, Seed: seed})
	}, 8, 40},
	{"wan_async_narrowband", func(seed int64) *sparse.CSR {
		return gen.DiagDominant(gen.DiagDominantOpts{N: 20000, Band: 12, PerRow: 7, Seed: seed})
	}, 10, 0},
	{"wan_async_twostage", func(seed int64) *sparse.CSR {
		return gen.DiagDominant(gen.DiagDominantOpts{N: 12000, Band: 220, PerRow: 10, Negative: true, Seed: seed})
	}, 10, 0},
	{"wan_cage_exchange", func(seed int64) *sparse.CSR { return gen.CageLike(178, seed) }, 10, 0},
}

// depCols returns, per band of the workload's core.NewDecomposition, the
// band's rows and its external dependency columns as plan.Build computes
// them: the columns outside the band its rows couple to, ascending.
func depCols(t testing.TB, w solverWorkload, a *sparse.CSR) (bands [][2]int, cols [][]int) {
	d, err := core.NewDecomposition(a.Rows, w.ranks, w.overlap, core.WeightOwner)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range d.Bands {
		dep := append(a.ColumnsUsed(b.Lo, b.Hi, 0, b.Lo), a.ColumnsUsed(b.Lo, b.Hi, b.Hi, a.Cols)...)
		bands = append(bands, [2]int{b.Lo, b.Hi})
		cols = append(cols, dep)
	}
	return bands, cols
}

// TestSelectColumnsWorkloadDepCols: on the four solver workloads, two seeds
// each, every band's dependency matrix and position map are the map-based
// references' bit for bit.
func TestSelectColumnsWorkloadDepCols(t *testing.T) {
	for _, w := range solverWorkloads {
		for _, seed := range []int64{1000, 2000} {
			a := w.matrix(seed)
			bands, cols := depCols(t, w, a)
			for l, b := range bands {
				what := fmt.Sprintf("%s seed %d band %d (%d dependency columns)", w.name, seed, l, len(cols[l]))
				if err := sparse.SameBits(a.SelectColumns(b[0], b[1], cols[l]), sparse.RefSelectColumns(a, b[0], b[1], cols[l])); err != nil {
					t.Errorf("%s: %v", what, err)
				}
				if !slices.Equal(a.SelectColumnsMap(b[0], b[1], cols[l]), sparse.RefSelectColumnsMap(a, b[0], b[1], cols[l])) {
					t.Errorf("%s: position map differs from the reference", what)
				}
			}
		}
	}
}

// BenchmarkSelectColumns times the dependency-matrix extraction of every band
// of each solver workload, production against reference:
//
//	go test -run '^$' -bench 'SelectColumns|Permute' -benchmem ./internal/sparse
func BenchmarkSelectColumns(b *testing.B) {
	for _, w := range solverWorkloads {
		a := w.matrix(1000)
		bands, cols := depCols(b, w, a)
		for _, impl := range []struct {
			name string
			sel  func(a *sparse.CSR, r0, r1 int, cols []int) *sparse.CSR
		}{{"prod", (*sparse.CSR).SelectColumns}, {"ref", sparse.RefSelectColumns}} {
			b.Run(w.name+"/"+impl.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for l, band := range bands {
						impl.sel(a, band[0], band[1], cols[l])
					}
				}
			})
		}
	}
}

// BenchmarkPermute times the two permutations dslu.Launch applies to the
// cage12 stand-in (a row permutation, then a symmetric one) and a symmetric
// one of the narrowband workload's matrix, production against reference.
func BenchmarkPermute(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cage := gen.CageLike(130228/64, 1012)
	narrow := gen.DiagDominant(gen.DiagDominantOpts{N: 20000, Band: 12, PerRow: 7, Seed: 1000})
	cp, np := rng.Perm(cage.Rows), rng.Perm(narrow.Rows)
	for _, tc := range []struct {
		name             string
		a                *sparse.CSR
		rowPerm, colPerm []int
	}{
		{"cage12-64/rows", cage, cp, nil},
		{"cage12-64/symmetric", cage, cp, cp},
		{"narrowband/symmetric", narrow, np, np},
	} {
		for _, impl := range []struct {
			name    string
			permute func(a *sparse.CSR, rowPerm, colPerm []int) *sparse.CSR
		}{{"prod", (*sparse.CSR).Permute}, {"ref", sparse.RefPermute}} {
			b.Run(tc.name+"/"+impl.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.permute(tc.a, tc.rowPerm, tc.colPerm)
				}
			})
		}
	}
}
