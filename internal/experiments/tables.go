package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sparse"
)

// table1Procs are the processor counts of the paper's Table 1.
var table1Procs = []int{1, 2, 3, 4, 6, 8, 9, 12, 16, 20}

// table2Procs are the processor counts of the paper's Table 2 (fewer than 4
// processors run out of memory).
var table2Procs = []int{4, 6, 8, 9, 12, 16, 20}

var compareHeader = []string{
	"procs", "distributed SuperLU", "sync multisplitting-LU",
	"async multisplitting-LU", "factorization time",
}

// compare returns the three jobs of a row of the paper's comparison tables —
// distributed SuperLU, synchronous and asynchronous multisplitting-LU, in
// that order — each on a fresh platform newPlat builds. what prefixes the
// progress lines; track accounts solver storage against host memory ("nem"
// cells).
func compare(what string, newPlat func(cell) *cluster.Platform, a *sparse.CSR, b []float64, track bool, flows int) []job {
	return []job{
		{what: what + ", distributed SuperLU", a: a, b: b, plt: newPlat, spec: runSpec{dslu: true, opts: core.Options{TrackMemory: track}, flows: flows}},
		{what: what + ", sync multisplitting", a: a, b: b, plt: newPlat, spec: runSpec{opts: core.Options{TrackMemory: track}, flows: flows}},
		{what: what + ", async multisplitting", a: a, b: b, plt: newPlat, spec: runSpec{opts: core.Options{Async: true, TrackMemory: track}, flows: flows}},
	}
}

// compareCells formats the outcome of a compare row: its three time cells
// followed by the synchronous factorization time.
func compareCells(cells []cell, res []*core.Result) []string {
	fact := "-"
	if cells[1].ok {
		fact = fmtSec(res[1].FactorTime)
	}
	return []string{cells[0].timeStr(), cells[1].timeStr(), cells[2].timeStr(), fact}
}

// scalabilityRows fills a cluster1 scalability table: for each processor
// count, the three solvers on the first nprocs machines of cluster1, all the
// table's runs in one list. memOverride as in cluster.Cluster1.
func scalabilityRows(cfg Config, t *Table, a *sparse.CSR, b []float64, procs []int, memOverride int64) (*Table, error) {
	track := memOverride != -1
	var jobs []job
	for _, nprocs := range procs {
		newPlat := fixed(func() *cluster.Platform { return cluster.Cluster1(nprocs, memOverride) })
		if nprocs == 1 {
			// One processor: the distributed solver degenerates to the
			// sequential direct method; multisplitting is not defined.
			jobs = append(jobs, job{what: "table: 1 procs, sequential direct", a: a, b: b, plt: newPlat,
				spec: runSpec{dslu: true, opts: core.Options{TrackMemory: track}}})
			continue
		}
		jobs = append(jobs, compare(fmt.Sprintf("table: %d procs", nprocs), newPlat, a, b, track, 0)...)
	}
	cells, res, err := cfg.solveAll(jobs)
	if err != nil {
		return nil, err
	}
	for _, nprocs := range procs {
		if nprocs == 1 {
			t.Rows = append(t.Rows, []string{"1", cells[0].timeStr(), "-", "-", "-"})
			cells, res = cells[1:], res[1:]
			continue
		}
		t.Rows = append(t.Rows, append([]string{fmt.Sprint(nprocs)}, compareCells(cells, res)...))
		cells, res = cells[3:], res[3:]
	}
	return t, nil
}

// Table1 reproduces the paper's Table 1: scalability of distributed SuperLU
// versus multisplitting-LU on cluster1 with the cage10 matrix.
func Table1(cfg Config) (*Table, error) {
	a := Cage10Like(cfg)
	b, _ := gen.RHSForSolution(a)
	t := &Table{
		ID:     "Table 1",
		Title:  fmt.Sprintf("cluster1 scalability, cage10-like matrix (n=%d, scale %d)", a.Rows, cfg.scale()),
		Header: compareHeader,
	}
	return scalabilityRows(cfg, t, a, b, table1Procs, -1)
}

// Table2 reproduces the paper's Table 2: the cage11 matrix on cluster1.
// Below 4 processors the problem does not fit in memory ("nem"); the memory
// budget is self-calibrated from the 4-processor fill so that the paper's
// boundary is reproduced at every scale.
func Table2(cfg Config) (*Table, error) {
	a := Cage11Like(cfg)
	b, _ := gen.RHSForSolution(a)
	// Probe the factor fill at 4 processors to size the per-host memory.
	cfg.logf("table2: probing 4-processor fill")
	fill, err := cfg.probeFill(cluster.Cluster1(4, -1), a, b)
	if err != nil {
		return nil, err
	}
	budget := fill / 4 * 24 * 3 / 2 // per-rank entries × bytes × 1.5 headroom
	t := &Table{
		ID:     "Table 2",
		Title:  fmt.Sprintf("cluster1 scalability, cage11-like matrix (n=%d, scale %d)", a.Rows, cfg.scale()),
		Header: compareHeader,
		Notes: []string{
			fmt.Sprintf("per-host memory budget %d bytes (self-calibrated: fits at 4+ processors)", budget),
		},
	}
	// The sub-4-processor row demonstrates the paper's "nem" boundary.
	return scalabilityRows(cfg, t, a, b, append([]int{2}, table2Procs...), budget)
}

// Table3 reproduces the paper's Table 3: the three solvers on the local
// heterogeneous cluster (cage11) and the distant two-site cluster (cage12,
// where distributed SuperLU runs out of memory, and the 500000 generated
// matrix). The nine runs are one list: the cage12 row waits on the cage11
// row's distributed-LU run (job 0), whose fill sizes its hosts' memory, while
// the other rows' runs fill the cores.
func Table3(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Table 3",
		Title:  fmt.Sprintf("distant/heterogeneous clusters (scale %d)", cfg.scale()),
		Header: append([]string{"matrix", "cluster"}, compareHeader[1:]...),
	}
	cage11, cage12, g := Cage11Like(cfg), Cage12Like(cfg), Gen500k(cfg)
	// cage12 on cluster3: the distributed solver's aggregate fill exceeds
	// the hosts' memory while the per-band multisplitting factors fit. The
	// budget is extrapolated from the fill ratio of the cage11 row's run.
	budget := func(d cell) int64 {
		ratio := float64(d.fill) / (float64(cage11.Rows) * float64(cage11.Rows))
		fill12 := int64(ratio * float64(cage12.Rows) * float64(cage12.Rows))
		return fill12 * 24 / 10 * 3 / 10 // 30% of the per-rank need: dslu cannot fit
	}
	rows := []struct {
		name, cl string
		a        *sparse.CSR
		plt      func(cell) *cluster.Platform
		// budgeted: the hosts' memory comes from job 0's fill, and solver
		// storage is accounted against it.
		budgeted bool
	}{
		{"cage11", "cluster2", cage11, fixed(func() *cluster.Platform { return cluster.Cluster2(-1) }), false},
		{"cage12", "cluster3", cage12, func(d cell) *cluster.Platform { return cluster.Cluster3(budget(d)) }, true},
		{fmt.Sprintf("%d matrix", 500000/cfg.scale()), "cluster3", g, cluster3, false},
	}
	var jobs []job
	for _, r := range rows {
		b, _ := gen.RHSForSolution(r.a)
		row := compare(fmt.Sprintf("table3: %s on %s", r.name, r.cl), r.plt, r.a, b, r.budgeted, 0)
		if r.budgeted {
			for i := range row {
				row[i].after = 1 // job 0: cage11's distributed-LU run
			}
		}
		jobs = append(jobs, row...)
	}
	cells, res, err := cfg.solveAll(jobs)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		t.Rows = append(t.Rows, append([]string{r.name, r.cl}, compareCells(cells[3*i:], res[3*i:])...))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("cage12 per-host budget %d bytes (30%% of the distributed solver's per-rank fill)", budget(cells[0])))
	return t, nil
}

// perturbationTable fills a Table 4 variant: the three solvers on the 500000
// generated matrix under 0, 1, 5 and 10 background flows across the WAN of
// the platform newPlat builds, all the table's runs in one list. id prefixes
// the progress lines.
func perturbationTable(cfg Config, id string, t *Table, newPlat func() *cluster.Platform) (*Table, error) {
	a := Gen500k(cfg)
	b, _ := gen.RHSForSolution(a)
	t.Header = []string{
		"perturbing flows", "distributed SuperLU", "sync multisplitting-LU", "async multisplitting-LU",
	}
	flows := []int{0, 1, 5, 10}
	var jobs []job
	for _, f := range flows {
		jobs = append(jobs, compare(fmt.Sprintf("%s: %d flows", id, f), fixed(newPlat), a, b, false, f)...)
	}
	cells, res, err := cfg.solveAll(jobs)
	if err != nil {
		return nil, err
	}
	for i, f := range flows {
		t.Rows = append(t.Rows, append([]string{fmt.Sprint(f)}, compareCells(cells[3*i:], res[3*i:])[:3]...))
	}
	return t, nil
}

// Table4 reproduces the paper's Table 4: the impact of perturbing
// communications on the 500000 generated matrix over cluster3.
func Table4(cfg Config) (*Table, error) {
	return perturbationTable(cfg, "table4", &Table{
		ID:    "Table 4",
		Title: fmt.Sprintf("network perturbation on cluster3, %d generated matrix (scale %d)", 500000/cfg.scale(), cfg.scale()),
	}, func() *cluster.Platform { return cluster.Cluster3(-1) })
}

// Table4Fair is the Table 4 scenario with TCP-like fair sharing on the
// inter-site link instead of FIFO serialization — closer to how the paper's
// perturbing flows shared the real Internet path, and correspondingly
// gentler slowdowns (an extension, not a paper table).
func Table4Fair(cfg Config) (*Table, error) {
	return perturbationTable(cfg, "table4fair", &Table{
		ID:    "Table 4 (fair-sharing variant)",
		Title: fmt.Sprintf("perturbation with TCP-like WAN sharing, %d generated matrix (scale %d)", 500000/cfg.scale(), cfg.scale()),
		Notes: []string{"extension: the paper's WAN contention was TCP-fair, our default model is FIFO"},
	}, func() *cluster.Platform { return cluster.Cluster3(-1).FairWAN() })
}

// Figure3 reproduces the paper's Figure 3: the impact of the overlap size on
// the synchronous and asynchronous solve times, the factorization time and
// the synchronous iteration count (divided by 100, as in the paper's plot),
// on cluster3 with the 100000 generated matrix whose spectral radius is
// close to 1.
func Figure3(cfg Config) (*Table, error) {
	a := Gen100k(cfg)
	b, _ := gen.RHSForSolution(a)
	t := &Table{
		ID:    "Figure 3",
		Title: fmt.Sprintf("overlap sweep on cluster3, %d generated matrix (scale %d)", 100000/cfg.scale(), cfg.scale()),
		Header: []string{
			"overlap", "sync time", "async time", "factorization time", "sync iterations/100",
		},
	}
	speed := fig3SpeedScale(cfg)
	t.Notes = append(t.Notes,
		"overlap in paper units; scaled rows = 2*overlap/scale, host speed scaled by 40.96/scale^3 to preserve the paper's compute/communication balance")
	// The whole sweep is one list: a sync and an async job per overlap.
	const step = 500 // paper units
	plt := fixed(func() *cluster.Platform { return cluster.Cluster3(-1).ScaleSpeed(speed) })
	var jobs []job
	for ov := 0; ov <= 10*step; ov += step {
		scaled := 2 * ov / cfg.scale()
		jobs = append(jobs,
			job{what: fmt.Sprintf("figure3: overlap %d (scaled %d)", ov, scaled), a: a, b: b, plt: plt,
				spec: runSpec{opts: core.Options{Overlap: scaled}}},
			job{a: a, b: b, plt: plt, spec: runSpec{opts: core.Options{Async: true, Overlap: scaled}}})
	}
	cells, res, err := cfg.solveAll(jobs)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(cells); i += 2 {
		s, sres := cells[i], res[i]
		iters, fact := "-", "-"
		if s.ok {
			iters = fmt.Sprintf("%.2f", float64(sres.Iterations)/100)
			fact = fmtSec(sres.FactorTime)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(i / 2 * step), s.timeStr(), cells[i+1].timeStr(), fact, iters})
	}
	return t, nil
}

// Experiment is one entry of the experiment registry.
type Experiment struct {
	// Name is the identifier msexp takes on its command line.
	Name string
	// Aliases are the alternative identifiers ByName accepts.
	Aliases []string
	// Run regenerates the experiment's table.
	Run func(Config) (*Table, error)
	// InAll marks the experiments a run without arguments regenerates.
	InAll bool
}

// registry lists every experiment in paper order; ByName and All derive from
// it.
var registry = []Experiment{
	{"table1", []string{"1"}, Table1, true},
	{"table2", []string{"2"}, Table2, true},
	{"table3", []string{"3"}, Table3, true},
	{"table4", []string{"4"}, Table4, true},
	{"table4fair", nil, Table4Fair, false},
	{"figure3", []string{"fig3"}, Figure3, true},
	{"faultsweep", []string{"faults"}, FaultSweep, true},
	{"utilization", []string{"util"}, Utilization, true},
	{"windowed", []string{"window"}, WindowedUtilization, true},
	{"topology", []string{"topo"}, TopologyTable, true},
	{"twostage", []string{"two-stage"}, TwoStageTable, true},
	{"adaptive", []string{"adapt"}, Adaptive, true},
}

// ByName returns the experiment runner for a registry name or alias
// ("table1".."table4", "figure3" / "fig3", ...); the error for an unknown
// identifier lists the valid names.
func ByName(name string) (func(Config) (*Table, error), error) {
	var names []string
	for _, x := range registry {
		for _, id := range append([]string{x.Name}, x.Aliases...) {
			if id == name {
				return x.Run, nil
			}
		}
		names = append(names, x.Name)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %s)", name, strings.Join(names, " "))
}

// All lists, in paper order, the experiments a default run regenerates.
func All() []Experiment {
	var all []Experiment
	for _, x := range registry {
		if x.InAll {
			all = append(all, x)
		}
	}
	return all
}
