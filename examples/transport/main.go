// Transport: a miniature of the companion application the paper cites
// (Bahi, Couturier, Salomon: 3-D transport of pollutants, solved with
// multisplitting methods in a grid environment). A steady advection-
// diffusion-reaction model on a 3-D grid,
//
//	−ν·Δc + w·∇c + r·c³ = s,
//
// is discretized with finite differences (upwind advection) into the
// semilinear system A·c + φ(c) = s and solved by Newton iterations whose
// Jacobian systems run the multisplitting-direct solver across the two
// distant clusters of the paper's cluster3.
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nonlinear"
	"repro/internal/sparse"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "transport:", err)
		os.Exit(1)
	}
}

// run solves the transport model with synchronous and with asynchronous
// inner solves and prints one line per mode.
func run(w io.Writer) error {
	const (
		nx, ny, nz = 16, 16, 16
		nu         = 1.0      // diffusion
		wx, wy     = 6.0, 3.0 // wind
		react      = 0.8      // reaction strength
	)
	n := nx * ny * nz
	idx := func(i, j, k int) int { return (i*ny+j)*nz + k }

	// Upwind finite differences: diffusion 7-point stencil + advection.
	co := sparse.NewCOO(n, n)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				r := idx(i, j, k)
				diag := 6 * nu
				add := func(ii, jj, kk int, v float64) {
					if ii >= 0 && ii < nx && jj >= 0 && jj < ny && kk >= 0 && kk < nz {
						co.Append(r, idx(ii, jj, kk), v)
					}
				}
				add(i-1, j, k, -nu-wx) // upwind in +x wind
				add(i+1, j, k, -nu)
				add(i, j-1, k, -nu-wy)
				add(i, j+1, k, -nu)
				add(i, j, k-1, -nu)
				add(i, j, k+1, -nu)
				co.Append(r, r, diag+wx+wy)
			}
		}
	}
	a := co.ToCSR()

	// Manufactured pollutant plume.
	ctrue := make([]float64, n)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				x := float64(i) / float64(nx-1)
				y := float64(j) / float64(ny-1)
				z := float64(k) / float64(nz-1)
				d2 := float64((x-0.3)*(x-0.3)) + float64((y-0.4)*(y-0.4)) + float64((z-0.5)*(z-0.5))
				ctrue[idx(i, j, k)] = math.Exp(-8 * d2)
			}
		}
	}
	s := make([]float64, n)
	var cnt vec.Counter
	a.MulVec(s, ctrue, &cnt)
	for i := range s {
		s[i] += float64(react * ctrue[i] * ctrue[i] * ctrue[i])
	}

	prob := &nonlinear.Problem{
		A: a,
		Phi: nonlinear.Diagonal{
			Phi:  func(i int, v float64) float64 { return react * v * v * v },
			DPhi: func(i int, v float64) float64 { return 3 * react * v * v },
		},
		B: s,
	}

	fmt.Fprintf(w, "3-D transport model, %dx%dx%d grid (n=%d, nnz=%d), Newton + multisplitting on cluster3\n",
		nx, ny, nz, n, a.NNZ())
	for _, mode := range []struct {
		name  string
		async bool
	}{{"synchronous inner solves", false}, {"asynchronous inner solves", true}} {
		res, err := nonlinear.SolveDistributed(
			func() (*vgrid.Platform, []*vgrid.Host) {
				p := cluster.Cluster3(-1)
				return p.Platform, p.Hosts
			},
			prob,
			nonlinear.Options{
				NewtonTol: 1e-8,
				Inner:     core.Options{Tol: 1e-10, Async: mode.async, Overlap: 32},
			})
		if err != nil {
			return fmt.Errorf("%s: %w", mode.name, err)
		}
		worst := 0.0
		for i := range res.X {
			if d := math.Abs(res.X[i] - ctrue[i]); d > worst {
				worst = d
			}
		}
		fmt.Fprintf(w, "  %-26s %d Newton steps, %4d inner iterations, %.3f virtual s, error %.2e\n",
			mode.name, res.NewtonIterations, res.InnerIterations, res.Time, worst)
	}
	return nil
}
