// Poisson: solve the 2-D Poisson equation −Δu = f on a square grid — the
// paper's Section 5 model problem class (an irreducibly diagonally dominant
// M-matrix) — across the two distant simulated clusters of the paper's
// cluster3, comparing the synchronous and asynchronous multisplitting-LU
// variants and the effect of Schwarz overlap.
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/vec"
)

func main() {
	if err := run(os.Stdout, 120, 60); err != nil {
		fmt.Fprintln(os.Stderr, "poisson:", err)
		os.Exit(1)
	}
}

// run solves the Poisson problem on a grid×grid mesh four ways (sync/async,
// without and with an overlap of `overlap` rows) and prints one line per
// solve.
func run(w io.Writer, grid, overlap int) error {
	nx, ny := grid, grid
	a := gen.Poisson2D(nx, ny)
	n := a.Rows

	// Manufactured solution u(x,y) = sin(πx)sin(πy) on the unit square.
	xtrue := make([]float64, n)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			x := float64(i+1) / float64(nx+1)
			y := float64(j+1) / float64(ny+1)
			xtrue[i*ny+j] = math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
		}
	}
	b := make([]float64, n)
	var c vec.Counter
	a.MulVec(b, xtrue, &c)

	fmt.Fprintf(w, "2-D Poisson, %dx%d grid (n=%d, nnz=%d) on cluster3 (7+3 machines, 20 Mb inter-site)\n",
		nx, ny, n, a.NNZ())

	type runCfg struct {
		name    string
		async   bool
		overlap int
	}
	for _, rc := range []runCfg{
		{"synchronous, no overlap", false, 0},
		{fmt.Sprintf("synchronous, overlap %d", overlap), false, overlap},
		{"asynchronous, no overlap", true, 0},
		{fmt.Sprintf("asynchronous, overlap %d", overlap), true, overlap},
	} {
		plt := cluster.Cluster3(-1)
		res, err := core.Solve(plt.Platform, plt.Hosts, a, b, core.Options{
			Tol:     1e-8,
			Async:   rc.async,
			Overlap: rc.overlap,
			Scheme:  core.WeightOwner,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", rc.name, err)
		}
		worst := 0.0
		for i := range res.X {
			if d := math.Abs(res.X[i] - xtrue[i]); d > worst {
				worst = d
			}
		}
		fmt.Fprintf(w, "  %-26s %8.3f virtual s, %5d iterations, error %.2e\n",
			rc.name, res.Time, res.Iterations, worst)
	}
	fmt.Fprintln(w, "overlap buys iterations; asynchrony hides the inter-site latency.")
	return nil
}
