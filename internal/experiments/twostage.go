package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
)

// twoStageMatrix is the huge-matrix workload: a wide-band generated system
// whose per-band exact LU fill is an order of magnitude above the narrow
// band preconditioner, so the two solver modes sit on opposite sides of a
// realistic per-host memory budget. The width stays fixed while the
// dimension scales, preserving the fill ratio at every Scale.
func twoStageMatrix(cfg Config) *sparse.CSR {
	n := 64000 / cfg.scale()
	if n < 2800 {
		n = 2800 // keep each of cluster3's 10 bands wider than the coupling
	}
	return gen.DiagDominant(gen.DiagDominantOpts{
		N: n, Band: 220, PerRow: 10, Negative: true, Seed: 220,
	})
}

// twoStagePrecondBand is the half-bandwidth of the experiment's band
// preconditioner: the width of its two-stage runs and of the budget probe.
const twoStagePrecondBand = 16

// twoStageBudget sizes the memory-wall boundary from the decomposition
// itself: the largest band's working set plus its preconditioner fits, while
// even the smallest band's exact LU factor does not. The probe mirrors the
// engine's allocations (band submatrix, dependency columns, iterate
// vectors, factor bytes).
func twoStageBudget(a *sparse.CSR, hosts int) (int64, error) {
	d, err := core.NewDecomposition(a.Rows, hosts, 0, core.WeightOwner)
	if err != nil {
		return 0, err
	}
	var cnt vec.Counter
	minExact, maxPc, maxBase := int64(0), int64(0), int64(0)
	for _, band := range d.Bands {
		sub := a.Submatrix(band.Lo, band.Hi, band.Lo, band.Hi)
		fact, err := (&splu.SparseLU{}).Factor(sub, &cnt)
		if err != nil {
			return 0, err
		}
		pc, err := splu.NewBandPreconditioner(sub, twoStagePrecondBand, &cnt)
		if err != nil {
			return 0, err
		}
		if minExact == 0 || fact.Bytes() < minExact {
			minExact = fact.Bytes()
		}
		if pc.Bytes() > maxPc {
			maxPc = pc.Bytes()
		}
		base := 2*(int64(sub.NNZ())*16+int64(len(sub.RowPtr))*8) + 16*int64(band.Size())
		if base > maxBase {
			maxBase = base
		}
	}
	if minExact <= 2*maxPc {
		return 0, fmt.Errorf("experiments: two-stage budget probe: exact fill %d bytes not clearly above preconditioner %d", minExact, maxPc)
	}
	return maxBase + maxPc + minExact/2, nil
}

// TwoStageTable reproduces the two-stage multisplitting study on cluster3:
// the nonstationary inner-sweep sweep (k = 1, 2, 4, 8, sync and async)
// against the exact-band baseline, then the memory wall — the same workload
// under a per-host budget where the direct solvers answer "nem" and only the
// two-stage mode completes.
func TwoStageTable(cfg Config) (*Table, error) {
	a := twoStageMatrix(cfg)
	b, _ := gen.RHSForSolution(a)
	t := &Table{
		ID: "Table 5",
		Title: fmt.Sprintf("two-stage multisplitting on cluster3, generated wide-band matrix (n=%d, scale %d)",
			a.Rows, cfg.scale()),
		Header: []string{"inner k", "sync multisplitting", "async multisplitting",
			"outer iters (sync)", "inner sweeps (sync)"},
	}
	// The memory wall: budget the hosts between the preconditioner footprint
	// and the exact factor fill. The budget reads no run, so the k sweep and
	// the wall are one list.
	budget, err := twoStageBudget(a, len(cluster.Cluster3(-1).Hosts))
	if err != nil {
		return nil, err
	}
	var labels []string
	var jobs []job
	for _, k := range []int{0, 1, 2, 4, 8} { // 0: the exact-band baseline
		label, o := "exact", core.Options{}
		if k > 0 {
			label, o = fmt.Sprintf("%d", k), core.Options{TwoStage: core.TwoStage{InnerIters: k, PrecondBand: twoStagePrecondBand}}
		}
		labels = append(labels, label)
		jobs = append(jobs, job{what: "twostage: " + label + ", sync", a: a, b: b, plt: cluster3, spec: runSpec{opts: o}})
		o.Async = true
		jobs = append(jobs, job{what: "twostage: " + label + ", async", a: a, b: b, plt: cluster3, spec: runSpec{opts: o}})
	}
	wallPlat := fixed(func() *cluster.Platform { return cluster.Cluster3(budget) })
	wall := func(what string, spec runSpec) job {
		spec.opts.TrackMemory = true
		return job{what: "twostage: memory wall, " + what, a: a, b: b, plt: wallPlat, spec: spec}
	}
	jobs = append(jobs,
		wall("distributed SuperLU", runSpec{dslu: true}),
		wall("exact multisplitting", runSpec{}),
		wall("two-stage multisplitting", runSpec{opts: core.Options{TwoStage: core.TwoStage{InnerIters: 4, PrecondBand: twoStagePrecondBand}}}))
	cells, results, err := cfg.solveAll(jobs)
	if err != nil {
		return nil, err
	}
	for i, label := range labels {
		sres := results[2*i]
		sweeps := "-"
		if sres.InnerSweeps > 0 {
			sweeps = fmt.Sprintf("%d", sres.InnerSweeps)
		}
		t.Rows = append(t.Rows, []string{label, cells[2*i].timeStr(), cells[2*i+1].timeStr(), fmt.Sprintf("%d", sres.Iterations), sweeps})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("memory-wall rows: per-host budget %d bytes (self-calibrated between band-%d preconditioner and exact band LU fill)", budget, twoStagePrecondBand))
	cells, results = cells[2*len(labels):], results[2*len(labels):]
	for i, label := range []string{"wall: dslu", "wall: exact", "wall: k=4"} {
		sweeps := "-"
		if res := results[i]; res != nil && res.InnerSweeps > 0 {
			sweeps = fmt.Sprintf("%d", res.InnerSweeps)
		}
		t.Rows = append(t.Rows, []string{label, cells[i].timeStr(), "-", "-", sweeps})
	}
	return t, nil
}
