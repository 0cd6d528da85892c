package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/vgrid"
)

// TestOptionMatrix is the composition contract of the option surface: every
// pair of features, under one and under two bands per processor, either
// solves a small diagonally dominant system to the dense-LU answer with a
// small true residual, or is one of the two documented exceptions and says so
// with ErrIncompatible. Nothing else — no untyped rejection, no wrong x.
func TestOptionMatrix(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 240, Band: 150, PerRow: 6, Margin: 0.1, Seed: 5})
	b, _ := gen.RHSForSolution(a)
	xref := directSolve(t, a, b)
	forEachMatrixConfig(t, func(t *testing.T, o Options) {
		pl, hosts := matrixPlatform()
		res, err := Solve(pl, hosts, a, b, o)
		if matrixRejected(o) {
			if !errors.Is(err, ErrIncompatible) {
				t.Fatalf("documented exception: err = %v, want ErrIncompatible", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		checkSolution(t, res, xref, 1e-6)
		if r := residualInf(a, res.X, b); r > 1e-6 {
			t.Fatalf("true residual %v", r)
		}
	})
}

// TestSessionOptionMatrix is the same contract for persistent sessions: every
// configuration TestOptionMatrix admits, a session admits. A refactoring
// session's three Resolves on drifting values reach the dense-LU answer of
// their values with a small true residual; and every Resolve of a NoRefactor
// session is a fresh Solve on the same values bit for bit — virtual time,
// iterations per rank, traffic, flops, solution — which is what "Launch is a
// session's first Resolve" means. Adapt is exempt from the second half only:
// the decomposition a resplit reached legitimately carries over.
func TestSessionOptionMatrix(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 240, Band: 150, PerRow: 6, Margin: 0.1, Seed: 5})
	b, _ := gen.RHSForSolution(a)
	vals := append([][]float64{nil}, perturbedVals(a, 2)...)
	systems := make([]*sparse.CSR, len(vals))
	xrefs := make([][]float64, len(vals))
	for k, v := range vals {
		systems[k] = a.Clone()
		if v != nil {
			copy(systems[k].Val, v)
		}
		xrefs[k] = directSolve(t, systems[k], b)
	}
	forEachMatrixConfig(t, func(t *testing.T, o Options) {
		newSession := func(noRefactor bool) *Session {
			sess, err := NewSession(matrixPlatform, a, o)
			if err != nil {
				t.Fatal(err)
			}
			sess.NoRefactor = noRefactor
			return sess
		}
		if matrixRejected(o) {
			if _, err := newSession(false).Resolve(nil, b); !errors.Is(err, ErrIncompatible) {
				t.Fatalf("documented exception: err = %v, want ErrIncompatible", err)
			}
			return
		}
		refactoring, factoring := newSession(false), newSession(true)
		for k, v := range vals {
			res, err := refactoring.Resolve(v, b)
			if err != nil {
				t.Fatalf("resolve %d: %v", k, err)
			}
			checkSolution(t, res, xrefs[k], 1e-6)
			if r := residualInf(systems[k], res.X, b); r > 1e-6 {
				t.Fatalf("resolve %d: true residual %v", k, r)
			}
			if o.Adapt {
				continue
			}
			res, err = factoring.Resolve(v, b)
			if err != nil {
				t.Fatalf("NoRefactor resolve %d: %v", k, err)
			}
			pl, hosts := matrixPlatform()
			fresh, err := Solve(pl, hosts, systems[k], b, o)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("NoRefactor resolve %d vs fresh Solve", k)
			sameResult(t, what, res, fresh)
			if res.FactorFlops != fresh.FactorFlops {
				t.Errorf("%s: factor flops %v vs %v", what, res.FactorFlops, fresh.FactorFlops)
			}
		}
	})
}

// matrixFeatures are the option-matrix features; forEachMatrixConfig runs fn
// as a subtest for every pair of them at one and two bands per rank.
var matrixFeatures = []struct {
	name string
	set  func(o *Options)
}{
	{"async", func(o *Options) { o.Async = true }},
	{"balance", func(o *Options) { o.Balance = true }},
	{"gateway", func(o *Options) { o.Gateway, o.TopoCollectives = true, true }},
	{"twostage", func(o *Options) { o.TwoStage = TwoStage{InnerIters: 3, PrecondBand: 8} }},
	{"fault-tolerant", func(o *Options) { o.FaultTolerant = true }},
	{"equilibrate", func(o *Options) { o.Equilibrate = true }},
	{"scheme", func(o *Options) { o.Scheme, o.Overlap = WeightAverage, 6 }},
	{"adapt", func(o *Options) { o.Adapt, o.AdaptInterval, o.AdaptHysteresis = true, 3, 0.1 }},
}

func forEachMatrixConfig(t *testing.T, fn func(t *testing.T, o Options)) {
	for bpp := 1; bpp <= 2; bpp++ {
		for i, fi := range matrixFeatures {
			for _, fj := range matrixFeatures[i:] {
				t.Run(fmt.Sprintf("bands=%d/%s+%s", bpp, fi.name, fj.name), func(t *testing.T) {
					o := Options{Tol: 1e-9, BandsPerProc: bpp}
					fi.set(&o)
					fj.set(&o)
					fn(t, o)
				})
			}
		}
	}
}

// matrixRejected reports the two documented ErrIncompatible pairs.
func matrixRejected(o Options) bool {
	return o.Adapt && (o.BandsPerProc > 1 || o.TwoStage.enabled())
}

// matrixPlatform is the option matrix's grid: two sites of two hosts, with
// unequal speeds so Balance does not degenerate to the uniform split.
func matrixPlatform() (*vgrid.Platform, []*vgrid.Host) {
	pl, hosts := twoSiteClustered(2, 2)
	hosts[1].Speed *= 2
	hosts[3].Speed /= 2
	return pl, hosts
}

// TestTimeScaleCovariant: no fault-free mode has a clock of its own. Every
// option-matrix feature alone, at one and two bands per rank, runs on
// matrixPlatform's grid with host speeds and link bandwidths multiplied by f
// and latencies divided by f; with f a power of two every virtual time scales
// exactly, so the run must take the same iterations to the same bits of x
// and finish at exactly T/f.
func TestTimeScaleCovariant(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 240, Band: 150, PerRow: 6, Margin: 0.1, Seed: 5})
	b, _ := gen.RHSForSolution(a)
	for bpp := 1; bpp <= 2; bpp++ {
		for _, feat := range matrixFeatures {
			o := Options{Tol: 1e-9, BandsPerProc: bpp}
			feat.set(&o)
			if matrixRejected(o) {
				continue
			}
			t.Run(fmt.Sprintf("bands=%d/%s", bpp, feat.name), func(t *testing.T) {
				pl, hosts := matrixPlatform()
				ref, err := Solve(pl, hosts, a, b, o)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range []float64{2, 0.25, 1024} {
					pl, hosts := scaledMatrixPlatform(t, f)
					res, err := Solve(pl, hosts, a, b, o)
					if err != nil {
						t.Fatalf("f=%g: %v", f, err)
					}
					if res.Iterations != ref.Iterations {
						t.Errorf("f=%g: %d iterations vs %d", f, res.Iterations, ref.Iterations)
					}
					if math.Float64bits(res.Time*f) != math.Float64bits(ref.Time) {
						t.Errorf("f=%g: time %v × f = %v, want %v", f, res.Time, res.Time*f, ref.Time)
					}
					for i := range ref.X {
						if math.Float64bits(res.X[i]) != math.Float64bits(ref.X[i]) {
							t.Fatalf("f=%g: x[%d] differs bitwise: %v vs %v", f, i, res.X[i], ref.X[i])
						}
					}
				}
			})
		}
	}
}

// scaledMatrixPlatform is matrixPlatform with every host speed and link
// bandwidth multiplied by f and every link latency divided by f.
func scaledMatrixPlatform(t *testing.T, f float64) (*vgrid.Platform, []*vgrid.Host) {
	t.Helper()
	pl, hosts := matrixPlatform()
	scaled := map[*vgrid.Link]bool{}
	for _, h := range hosts {
		h.Speed *= f
		for _, g := range hosts {
			route, err := pl.Route(h, g)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range route {
				if !scaled[l] {
					scaled[l] = true
					l.Latency /= f
					l.Bandwidth *= f
				}
			}
		}
	}
	return pl, hosts
}

// TestOptionsRejectedBeforeLaunch: malformed options fail in Launch, before
// any rank body runs and any virtual time is spent. A field out of its range
// is a *RangeError naming the field.
func TestOptionsRejectedBeforeLaunch(t *testing.T) {
	a := gen.Tridiag(40, -1, 4, -1)
	b := make([]float64, 40)
	adapt := func(interval int, hysteresis float64) Options {
		return Options{Adapt: true, AdaptInterval: interval, AdaptHysteresis: hysteresis}
	}
	for name, tc := range map[string]struct {
		o     Options
		field string // "" for a rejection that is not a RangeError
	}{
		"negative-bands":      {Options{BandsPerProc: -1}, "BandsPerProc"},
		"negative-maxiter":    {Options{MaxIter: -1}, "MaxIter"},
		"negative-tol":        {Options{Tol: -1e-8}, "Tol"},
		"infinite-tol":        {Options{Tol: math.Inf(1)}, "Tol"},
		"unknown-scheme":      {Options{Scheme: 9}, "Scheme"},
		"unknown-schedule":    {Options{TwoStage: TwoStage{Schedule: 7}}, "TwoStage.Schedule"},
		"zero-interval":       {adapt(0, 0.1), "AdaptInterval"},
		"negative-interval":   {adapt(-1, 0.1), "AdaptInterval"},
		"zero-hysteresis":     {adapt(5, 0), "AdaptHysteresis"},
		"nan-hysteresis":      {adapt(5, math.NaN()), "AdaptHysteresis"},
		"negative-hysteresis": {adapt(5, -0.1), "AdaptHysteresis"},
		"zero-precond-band":   {Options{TwoStage: TwoStage{InnerIters: 2}}, "TwoStage.PrecondBand"},
		"more-bands-than-row": {Options{BandsPerProc: 11}, ""},
	} {
		pl, hosts := lanPlatform(4, 0)
		_, err := Launch(vgrid.NewEngine(pl), hosts, a, b, tc.o)
		var re *RangeError
		switch {
		case err == nil:
			t.Errorf("%s: accepted", name)
		case errors.Is(err, ErrIncompatible):
			t.Errorf("%s: %v is not an option-pair conflict", name, err)
		case tc.field != "" && (!errors.As(err, &re) || re.Option != tc.field):
			t.Errorf("%s: %v, want a RangeError on %s", name, err, tc.field)
		}
	}
}

// TestEnumNamesRoundTrip: every name of a typed option parses back to the
// value that prints it, and an unknown name is refused with the list.
func TestEnumNamesRoundTrip(t *testing.T) {
	for i, name := range SchemeNames {
		var w WeightScheme
		if err := w.Set(WeightScheme(i).String()); err != nil || w != WeightScheme(i) || w.String() != name {
			t.Errorf("scheme %q: Set gives %v, %v", name, w, err)
		}
	}
	for i, name := range ScheduleNames {
		var s InnerSchedule
		if err := s.Set(InnerSchedule(i).String()); err != nil || s != InnerSchedule(i) || s.String() != name {
			t.Errorf("schedule %q: Set gives %v, %v", name, s, err)
		}
	}
	var w WeightScheme
	if err := w.Set("bogus"); err == nil || err.Error() != `unknown weight scheme "bogus" (want owner, average, linear)` {
		t.Errorf("unknown scheme: %v", err)
	}
}
