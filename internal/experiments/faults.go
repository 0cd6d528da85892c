package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/vgrid"
)

// faultSweepDrops are the WAN message-drop probabilities of the fault sweep.
var faultSweepDrops = []float64{0, 0.01, 0.05, 0.10}

// faultCrashHost is the cluster3 machine crashed in the sweep's
// crash/restart scenario: a site-1 host behind the shared WAN link.
const faultCrashHost = "c3-s1-08"

// faultSweepVariants are the three solver columns of the fault sweep.
var faultSweepVariants = []struct {
	name string
	opts core.Options
}{
	{"sync multisplitting", core.Options{}},
	{"sync + retry", core.Options{FaultTolerant: true}},
	{"async fault-tolerant", core.Options{Async: true, FaultTolerant: true}},
}

// faultSeed seeds the deterministic fault injection of every experiment that
// draws from a fault plan.
const faultSeed = 42

// FaultSweep measures the three solver variants on cluster3 under injected
// WAN faults with the 500000 generated matrix: message drops at increasing
// probability, plus one crash/restart of a site-1 host. The plain
// synchronous solver stalls as soon as the seeded loss stream claims one of
// its blocking messages (a blocking exchange loses a message and the whole
// round deadlocks) — certain at the higher drop rates, while the lowest
// rate may ride through on a short run; synchronous retransmission survives
// drops but dies on the crash; the fault-tolerant asynchronous solver
// converges through every scenario with bounded iteration inflation.
func FaultSweep(cfg Config) (*Table, error) {
	a := Gen500k(cfg)
	b, _ := gen.RHSForSolution(a)
	t := &Table{
		ID:    "Fault sweep",
		Title: fmt.Sprintf("WAN fault injection on cluster3, %d generated matrix (scale %d, seed %d)", 500000/cfg.scale(), cfg.scale(), faultSeed),
		Header: []string{
			"scenario", "sync multisplitting-LU", "sync + retry", "async fault-tolerant", "async iterations",
		},
		Notes: []string{
			"stall: deadlock on a lost blocking message; dead: dead-rank detection fired",
		},
	}
	dropPlan := func(p float64) *vgrid.FaultPlan {
		if p == 0 {
			return nil
		}
		return vgrid.NewFaultPlan(faultSeed).DropOnLink("wan", 0, math.Inf(1), p)
	}
	jobs := func(scenario string, plan func() *vgrid.FaultPlan) []job {
		js := make([]job, len(faultSweepVariants))
		for i, v := range faultSweepVariants {
			js[i] = job{what: fmt.Sprintf("faultsweep: %s, %s", scenario, v.name), a: a, b: b, plt: cluster3,
				spec: runSpec{opts: v.opts, plan: plan()}}
		}
		return js
	}
	// rows runs the jobs of the scenarios as one list, a row per scenario.
	rows := func(scenarios []string, list []job) error {
		cells, results, err := cfg.solveAll(list)
		if err != nil {
			return err
		}
		nv := len(faultSweepVariants)
		for k, scenario := range scenarios {
			cells, results := cells[k*nv:(k+1)*nv], results[k*nv:(k+1)*nv]
			row := []string{scenario}
			for _, c := range cells {
				row = append(row, c.timeStr())
			}
			iters := "-" // of the last variant, the asynchronous one
			if cells[nv-1].ok {
				iters = fmt.Sprint(results[nv-1].Iterations)
			}
			t.Rows = append(t.Rows, append(row, iters))
		}
		return nil
	}
	var scenarios []string
	var list []job
	for _, p := range faultSweepDrops {
		p := p
		scenario := fmt.Sprintf("drop %g%%", 100*p)
		scenarios = append(scenarios, scenario)
		list = append(list, jobs(scenario, func() *vgrid.FaultPlan { return dropPlan(p) })...)
	}
	if err := rows(scenarios, list); err != nil {
		return nil, err
	}

	// Crash/restart scenario: take a site-1 host down for the second quarter
	// of the fault-free asynchronous run's virtual duration.
	cfg.logf("faultsweep: probing fault-free async duration")
	clean, _, err := cfg.solve(cluster.Cluster3(-1), a, b, runSpec{opts: core.Options{Async: true, FaultTolerant: true}})
	if err != nil {
		return nil, err
	}
	if !clean.ok {
		return t, fmt.Errorf("experiments: fault-free async probe failed (%s)", clean.note)
	}
	from, until := 0.25*clean.time, 0.5*clean.time
	t.Notes = append(t.Notes,
		fmt.Sprintf("crash: %s down over [%.3fs, %.3fs) of a %.3fs fault-free async run", faultCrashHost, from, until, clean.time))
	crash := fmt.Sprintf("crash %s", faultCrashHost)
	err = rows([]string{crash}, jobs(crash, func() *vgrid.FaultPlan {
		return vgrid.NewFaultPlan(faultSeed).CrashHost(faultCrashHost, from, until)
	}))
	return t, err
}
