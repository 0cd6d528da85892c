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
// A mode is reported GUARANTEED only when every band's estimate stabilized
// below 1. An estimate the power iteration did not stabilize within -iters
// steps establishes nothing either way: that band is marked NOT ESTABLISHED
// and so is the mode, unless another band's stabilized estimate violates the
// hypothesis.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/iterative"
	"repro/internal/mmio"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: it parses args, prints the report to
// stdout and returns the exit status (0 the check ran, whatever its verdict;
// 1 the matrix, decomposition or topology was rejected; 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mscheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	matrixPath := fs.String("matrix", "", "MatrixMarket file (required)")
	bands := fs.Int("bands", 4, "number of band splittings L")
	overlap := fs.Int("overlap", 0, "overlap rows per band side")
	withAbs := fs.Bool("abs", false, "also check the asynchronous condition rho(|M^-1 N|) < 1 (costly)")
	iters := fs.Int("iters", 3000, "power-iteration cap")
	clusterTyp := fs.String("cluster", "", "also validate this platform's cluster topology: "+strings.Join(cluster.Names, ", "))
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "mscheck: "+format+"\n", a...)
		return 2
	}
	switch {
	case *matrixPath == "":
		return usage("-matrix is required")
	case *bands < 1:
		return usage("-bands %d: must be at least 1", *bands)
	case *iters < 1:
		return usage("-iters %d: must be at least 1", *iters)
	}
	if *clusterTyp != "" {
		if err := checkTopology(stdout, *clusterTyp, *bands); err != nil {
			fmt.Fprintln(stderr, "mscheck:", err)
			return 1
		}
	}
	if err := checkTheorem(stdout, *matrixPath, *bands, *overlap, *withAbs, *iters); err != nil {
		fmt.Fprintln(stderr, "mscheck:", err)
		return 1
	}
	return 0
}

// checkTopology builds the named platform, validates its cluster
// declarations and prints the layout the topology-aware modes rely on.
func checkTopology(w io.Writer, name string, procs int) error {
	plt, err := cluster.ByName(name, procs)
	if err != nil {
		return err
	}
	if err := plt.Platform.ValidateTopology(); err != nil {
		return fmt.Errorf("topology of %s INVALID: %w", name, err)
	}
	cls := plt.Platform.Clusters()
	fmt.Fprintf(w, "topology of %s valid: %d hosts in %d cluster(s)\n", name, len(plt.Hosts), len(cls))
	for _, c := range cls {
		fmt.Fprintf(w, "  cluster %q: %d hosts (aggregator candidate %s)\n", c.Name, len(c.Hosts), c.Hosts[0].Name)
	}
	inter := 0
	for i, a := range plt.Hosts {
		for _, b := range plt.Hosts[i+1:] {
			if !plt.Platform.SameCluster(a, b) {
				inter++
			}
		}
	}
	fmt.Fprintf(w, "  host pairs crossing clusters: %d\n\n", inter)
	return nil
}

// mode is one of Theorem 1's two conditions and what the bands established
// about it.
type mode struct {
	name     string // "synchronous" or "asynchronous"
	radius   string // the quantity estimated, padded to a common width
	operator func(a *sparse.CSR, r0, r1 int, d splu.Direct, c *vec.Counter) (func(y, x []float64), error)
	violated int // bands whose stabilized estimate is ≥ 1
	open     int // bands whose estimate did not stabilize
}

// checkTheorem estimates every band's spectral radii and prints one line per
// band and condition, then one verdict per condition.
func checkTheorem(w io.Writer, path string, bands, overlap int, withAbs bool, iters int) error {
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
	modes := []*mode{{name: "synchronous", radius: "rho(M^-1 N)  ", operator: iterative.SplittingOperator}}
	if withAbs {
		modes = append(modes, &mode{name: "asynchronous", radius: "rho(|M^-1 N|)", operator: iterative.AbsSplittingOperator})
	}
	fmt.Fprintf(w, "Theorem 1 check: n=%d nnz=%d, %d bands, overlap %d\n", a.Rows, a.NNZ(), bands, overlap)
	for l, band := range d.Bands {
		for _, m := range modes {
			var c vec.Counter
			apply, err := m.operator(a, band.Lo, band.Hi, &splu.SparseLU{}, &c)
			if err != nil {
				return fmt.Errorf("band %d, %s condition: %w", l, m.name, err)
			}
			rho, stable := iterative.PowerMethod(a.Rows, apply, iters, 1e-10)
			mark := "OK"
			switch {
			case !stable:
				mark = fmt.Sprintf("NOT ESTABLISHED (power iteration not stabilized after %d steps)", iters)
				m.open++
			case rho >= 1:
				mark = "VIOLATED"
				m.violated++
			}
			fmt.Fprintf(w, "  band %2d rows [%6d,%6d): %s = %.6f  %s\n", l, band.Lo, band.Hi, m.radius, rho, mark)
		}
	}
	fmt.Fprintln(w)
	for _, m := range modes {
		switch {
		case m.violated > 0:
			fmt.Fprintf(w, "%s multisplitting: Theorem 1 hypothesis violated; convergence not guaranteed\n", m.name)
		case m.open > 0:
			fmt.Fprintf(w, "%s multisplitting: not established — %d of %d estimates did not stabilize; raise -iters\n", m.name, m.open, len(d.Bands))
		default:
			fmt.Fprintf(w, "%s multisplitting: convergence GUARANTEED (Theorem 1)\n", m.name)
		}
	}
	return nil
}
