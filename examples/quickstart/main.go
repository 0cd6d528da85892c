// Quickstart: solve a diagonally dominant system with the
// multisplitting-direct method, first sequentially (the paper's fixed-point
// iteration run in-process), then distributed across a simulated 4-machine
// cluster, and compare against the plain sequential sparse LU answer.
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/splu"
	"repro/internal/vec"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// run solves the quickstart system four ways and prints one line per solve.
func run(w io.Writer) error {
	// A strictly diagonally dominant matrix: Theorem 1 guarantees both the
	// synchronous and asynchronous variants converge (paper Prop. 1).
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 4000, Seed: 7})
	b, xtrue := gen.RHSForSolution(a)

	// Reference: one sequential sparse LU solve (what SuperLU would do).
	var cnt vec.Counter
	fact, err := (&splu.SparseLU{}).Factor(a, &cnt)
	if err != nil {
		return err
	}
	xref := make([]float64, a.Rows)
	fact.Solve(xref, b, &cnt)
	fmt.Fprintf(w, "sequential sparse LU:   error %.2e, %.0f Mflop\n",
		maxErr(xref, xtrue), cnt.Flops()/1e6)

	// Sequential multisplitting over 4 bands (the fixed point mapping of
	// the paper's Section 3, executed in-process).
	dec, err := core.NewDecomposition(a.Rows, 4, 0, core.WeightOwner)
	if err != nil {
		return err
	}
	var cnt2 vec.Counter
	seq, err := core.SolveSequential(a, b, dec, &splu.SparseLU{}, 1e-10, 10000, &cnt2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sequential 4-band iteration: error %.2e in %d iterations\n",
		maxErr(seq.X, xtrue), seq.Iterations)

	// Distributed: the same decomposition across 4 simulated machines of
	// the paper's cluster1 (P4 2.6 GHz, 100 Mb LAN).
	plt := cluster.Cluster1(4, -1)
	res, err := core.Solve(plt.Platform, plt.Hosts, a, b, core.Options{Tol: 1e-10})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "distributed (4 machines, synchronous): error %.2e, %d iterations, "+
		"%.4f virtual seconds (factorization %.4f)\n",
		maxErr(res.X, xtrue), res.Iterations, res.Time, res.FactorTime)

	// Asynchronous flavor: machines iterate at their own pace.
	plt2 := cluster.Cluster1(4, -1)
	res2, err := core.Solve(plt2.Platform, plt2.Hosts, a, b, core.Options{Tol: 1e-10, Async: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "distributed (4 machines, asynchronous): error %.2e, iterations per rank %v, "+
		"%.4f virtual seconds\n",
		maxErr(res2.X, xtrue), res2.IterationsPerRank, res2.Time)
	return nil
}

func maxErr(x, xtrue []float64) float64 {
	worst := 0.0
	for i := range x {
		if d := math.Abs(x[i] - xtrue[i]); d > worst {
			worst = d
		}
	}
	return worst
}
