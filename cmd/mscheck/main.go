// Command mscheck verifies the hypotheses of the paper's Theorem 1 for a
// concrete matrix and band decomposition: for every band splitting
// A = Ml − Nl it estimates the spectral radii ρ(Ml⁻¹Nl) (synchronous
// condition) and ρ(|Ml⁻¹Nl|) (asynchronous condition) by power iteration and
// reports whether the theorem guarantees convergence of each mode.
//
// Usage:
//
//	mscheck -matrix A.mtx [-bands L] [-overlap K] [-abs] [-iters N]
//	        [-cluster cluster1|cluster2|cluster3]
//
// The -abs check materializes |Ml⁻¹Nl| column by column (O(n) operator
// applications), so keep it for moderate dimensions.
//
// With -cluster the command additionally validates the named platform's
// cluster topology — every host assigned to a cluster and every
// inter-cluster host pair routed — and summarizes the cluster layout the
// topology-aware solver modes (msolve -topo / -gateway) would use.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/iterative"
	"repro/internal/mmio"
	"repro/internal/splu"
	"repro/internal/vec"
)

func main() {
	var (
		matrixPath = flag.String("matrix", "", "MatrixMarket file (required)")
		bands      = flag.Int("bands", 4, "number of band splittings L")
		overlap    = flag.Int("overlap", 0, "overlap rows per band side")
		withAbs    = flag.Bool("abs", false, "also check the asynchronous condition rho(|M^-1 N|) < 1 (costly)")
		iters      = flag.Int("iters", 3000, "power-iteration cap")
		clusterTyp = flag.String("cluster", "", "also validate this platform's cluster topology: cluster1, cluster2 or cluster3")
	)
	flag.Parse()
	if *matrixPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *clusterTyp != "" {
		if err := checkTopology(*clusterTyp, *bands); err != nil {
			fmt.Fprintln(os.Stderr, "mscheck:", err)
			os.Exit(1)
		}
	}
	if err := run(*matrixPath, *bands, *overlap, *withAbs, *iters); err != nil {
		fmt.Fprintln(os.Stderr, "mscheck:", err)
		os.Exit(1)
	}
}

// checkTopology builds the named platform, validates its cluster
// declarations and prints the layout the topology-aware modes rely on.
func checkTopology(name string, procs int) error {
	plt, err := cluster.ByName(name, procs)
	if err != nil {
		return err
	}
	if err := plt.Platform.ValidateTopology(); err != nil {
		return fmt.Errorf("topology of %s INVALID: %w", name, err)
	}
	cls := plt.Platform.Clusters()
	fmt.Printf("topology of %s valid: %d hosts in %d cluster(s)\n", name, len(plt.Hosts), len(cls))
	for _, c := range cls {
		fmt.Printf("  cluster %q: %d hosts (aggregator candidate %s)\n", c.Name, len(c.Hosts), c.Hosts[0].Name)
	}
	inter := 0
	for i, a := range plt.Hosts {
		for _, b := range plt.Hosts[i+1:] {
			if !plt.Platform.SameCluster(a, b) {
				inter++
			}
		}
	}
	fmt.Printf("  host pairs crossing clusters: %d\n\n", inter)
	return nil
}

func run(path string, bands, overlap int, withAbs bool, iters int) error {
	a, err := mmio.ReadMatrixAuto(path)
	if err != nil {
		return err
	}
	if a.Rows != a.Cols {
		return fmt.Errorf("matrix is %dx%d, need square", a.Rows, a.Cols)
	}
	d, err := core.NewDecomposition(a.Rows, bands, overlap, core.WeightOwner)
	if err != nil {
		return err
	}
	fmt.Printf("Theorem 1 check: n=%d nnz=%d, %d bands, overlap %d\n", a.Rows, a.NNZ(), bands, overlap)
	syncOK, asyncOK := true, true
	for l, band := range d.Bands {
		var c vec.Counter
		apply, err := iterative.SplittingOperator(a, band.Lo, band.Hi, &splu.SparseLU{}, &c)
		if err != nil {
			return fmt.Errorf("band %d: %w", l, err)
		}
		rho, stable := iterative.PowerMethod(a.Rows, apply, iters, 1e-10)
		mark := "OK "
		if rho >= 1 {
			mark = "VIOLATED"
			syncOK = false
		}
		note := ""
		if !stable {
			note = " (power iteration not fully stabilized)"
		}
		fmt.Printf("  band %2d rows [%6d,%6d): rho(M^-1 N)   = %.6f  %s%s\n", l, band.Lo, band.Hi, rho, mark, note)
		if withAbs {
			absApply, err := iterative.AbsSplittingOperator(a, band.Lo, band.Hi, &splu.SparseLU{}, &c)
			if err != nil {
				return fmt.Errorf("band %d abs: %w", l, err)
			}
			rhoAbs, stableAbs := iterative.PowerMethod(a.Rows, absApply, iters, 1e-10)
			markAbs := "OK "
			if rhoAbs >= 1 {
				markAbs = "VIOLATED"
				asyncOK = false
			}
			noteAbs := ""
			if !stableAbs {
				noteAbs = " (power iteration not fully stabilized)"
			}
			fmt.Printf("  band %2d rows [%6d,%6d): rho(|M^-1 N|) = %.6f  %s%s\n", l, band.Lo, band.Hi, rhoAbs, markAbs, noteAbs)
		}
	}
	fmt.Println()
	if syncOK {
		fmt.Println("synchronous multisplitting: convergence GUARANTEED (Theorem 1)")
	} else {
		fmt.Println("synchronous multisplitting: Theorem 1 hypothesis violated; convergence not guaranteed")
	}
	if withAbs {
		if asyncOK {
			fmt.Println("asynchronous multisplitting: convergence GUARANTEED (Theorem 1)")
		} else {
			fmt.Println("asynchronous multisplitting: Theorem 1 hypothesis violated; convergence not guaranteed")
		}
	}
	return nil
}
