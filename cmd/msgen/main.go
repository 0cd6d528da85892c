// Command msgen writes generator matrices as MatrixMarket files.
//
// Usage:
//
//	msgen -kind dominant|cage|poisson2d|poisson3d|tridiag -n N [-o out.mtx]
//	      [-band B] [-perrow P] [-margin M] [-seed S] [-nx X -ny Y -nz Z]
//
// The dominant generator matches the paper's "generated" matrices: a small
// -margin pushes the Jacobi spectral radius toward 1 (the Figure 3 regime).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/gen"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/sparse"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: it parses args, writes the matrix to the -o
// file (or to stdout) and returns the exit status (0 ok, 1 the write failed,
// 2 usage). Every input is checked before the output file is created.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "dominant", "matrix family: dominant, cage, poisson2d, poisson3d, tridiag")
	n := fs.Int("n", 10000, "dimension (dominant, cage, tridiag)")
	band := fs.Int("band", 10, "half bandwidth (dominant)")
	perRow := fs.Int("perrow", 6, "off-diagonal entries per row (dominant)")
	margin := fs.Float64("margin", 0.5, "diagonal dominance margin (dominant)")
	seed := fs.Int64("seed", 1, "generator seed")
	nx := fs.Int("nx", 32, "grid size x (poisson)")
	ny := fs.Int("ny", 32, "grid size y (poisson)")
	nz := fs.Int("nz", 32, "grid size z (poisson3d)")
	format := fs.String("format", "mm", "output format: mm (MatrixMarket) or hb (Harwell-Boeing RUA)")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "msgen: "+format+"\n", a...)
		return 2
	}

	// The smallest dimension the chosen family reads: the generators panic
	// below 1.
	var least int
	switch *kind {
	case "dominant", "cage", "tridiag":
		least = *n
	case "poisson2d":
		least = min(*nx, *ny)
	case "poisson3d":
		least = min(*nx, *ny, *nz)
	default:
		return usage("unknown kind %q", *kind)
	}
	if least < 1 {
		return usage("dimension %d of a %s matrix: must be at least 1", least, *kind)
	}
	// The generator reads a band or row count below 1 and a zero margin as
	// "use the default", and a negative margin leaves the matrix without
	// diagonal dominance.
	if *kind == "dominant" {
		switch {
		case *band < 1:
			return usage("-band %d: must be at least 1", *band)
		case *perRow < 1:
			return usage("-perrow %d: must be at least 1", *perRow)
		case !(*margin > 0) || math.IsInf(*margin, 1): // NaN fails the comparison
			return usage("-margin %g: must be finite and > 0", *margin)
		}
	}
	if *format != "mm" && *format != "hb" {
		return usage("unknown format %q", *format)
	}

	var m *sparse.CSR
	switch *kind {
	case "dominant":
		m = gen.DiagDominant(gen.DiagDominantOpts{N: *n, Band: *band, PerRow: *perRow, Margin: *margin, Seed: *seed})
	case "cage":
		m = gen.CageLike(*n, *seed)
	case "poisson2d":
		m = gen.Poisson2D(*nx, *ny)
	case "poisson3d":
		m = gen.Poisson3D(*nx, *ny, *nz)
	case "tridiag":
		m = gen.Tridiag(*n, -1, 4, -1)
	}
	write := func(w io.Writer) error {
		if *format == "hb" {
			return mmio.WriteHB(w, m, fmt.Sprintf("msgen %s n=%d", *kind, m.Rows), "MSGEN")
		}
		return mmio.WriteMatrix(w, m)
	}
	if *out == "" {
		if err := write(stdout); err != nil {
			fmt.Fprintln(stderr, "msgen:", err)
			return 1
		}
		return 0
	}
	if err := obs.WriteFile(*out, write); err != nil {
		fmt.Fprintln(stderr, "msgen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %dx%d matrix with %d nonzeros to %s\n", m.Rows, m.Cols, m.NNZ(), *out)
	return 0
}
