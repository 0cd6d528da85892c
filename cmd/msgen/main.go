// Command msgen writes generator matrices as MatrixMarket files.
//
// Usage:
//
//	msgen -kind dominant|cage|poisson2d|poisson3d|tridiag -n N [-o out.mtx]
//	      [-band B] [-perrow P] [-margin M] [-seed S] [-nx X -ny Y -nz Z]
//	      [-format mm|hb]
//
// -format hb writes Harwell-Boeing RUA instead of MatrixMarket. The dominant
// generator matches the paper's "generated" matrices: a small -margin pushes
// the Jacobi spectral radius toward 1 (the Figure 3 regime).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/gen"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/sparse"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// names lists a table's keys in order.
func names[V any](table map[string]V) string {
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// run is the command behind main: it parses args, writes the matrix to the -o
// file (or to stdout) and returns the exit status (0 ok, 1 the write failed,
// 2 usage). Every input is checked before the output file is created.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 10000, "dimension (dominant, cage, tridiag)")
	band := fs.Int("band", 10, "half bandwidth (dominant)")
	perRow := fs.Int("perrow", 6, "off-diagonal entries per row (dominant)")
	margin := fs.Float64("margin", 0.5, "diagonal dominance margin (dominant)")
	seed := fs.Int64("seed", 1, "generator seed")
	nx := fs.Int("nx", 32, "grid size x (poisson)")
	ny := fs.Int("ny", 32, "grid size y (poisson)")
	nz := fs.Int("nz", 32, "grid size z (poisson3d)")
	// kinds is the -kind table: each family's smallest dimension (the
	// generators panic below 1) and its generator, read after parsing.
	kinds := map[string]struct {
		least func() int
		gen   func() *sparse.CSR
	}{
		"dominant": {func() int { return *n }, func() *sparse.CSR {
			return gen.DiagDominant(gen.DiagDominantOpts{N: *n, Band: *band, PerRow: *perRow, Margin: *margin, Seed: *seed})
		}},
		"cage":      {func() int { return *n }, func() *sparse.CSR { return gen.CageLike(*n, *seed) }},
		"poisson2d": {func() int { return min(*nx, *ny) }, func() *sparse.CSR { return gen.Poisson2D(*nx, *ny) }},
		"poisson3d": {func() int { return min(*nx, *ny, *nz) }, func() *sparse.CSR { return gen.Poisson3D(*nx, *ny, *nz) }},
		"tridiag":   {func() int { return *n }, func() *sparse.CSR { return gen.Tridiag(*n, -1, 4, -1) }},
	}
	kind := fs.String("kind", "dominant", "matrix family: "+names(kinds))
	formats := map[string]func(w io.Writer, m *sparse.CSR) error{
		"mm": mmio.WriteMatrix,
		"hb": func(w io.Writer, m *sparse.CSR) error {
			return mmio.WriteHB(w, m, fmt.Sprintf("msgen %s n=%d", *kind, m.Rows), "MSGEN")
		},
	}
	format := fs.String("format", "mm", "output format: "+names(formats))
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

	fam, ok := kinds[*kind]
	if !ok {
		return usage("unknown kind %q (want %s)", *kind, names(kinds))
	}
	if least := fam.least(); least < 1 {
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
	writeFormat, ok := formats[*format]
	if !ok {
		return usage("unknown format %q (want %s)", *format, names(formats))
	}

	m := fam.gen()
	write := func(w io.Writer) error { return writeFormat(w, m) }
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
