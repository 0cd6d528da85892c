package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
)

// artifacts names the per-run files of an observability-aware experiment:
// <TraceJSON>-<key>.json and <MetricsOut>-<key>.metrics.{json,csv}.
func (c Config) artifacts(key string) obs.Export {
	var x obs.Export
	if c.TraceJSON != "" {
		x.TraceJSON = c.TraceJSON + "-" + key + ".json"
	}
	if c.MetricsOut != "" {
		x.MetricsOut = c.MetricsOut + "-" + key
	}
	return x
}

// Utilization quantifies the paper's "communication dominates grid-parallel
// direct solvers" claim: it runs the distributed direct baseline and both
// multisplitting variants on the three clusters with the observability layer
// on, and reports where the critical path of each run spends its virtual
// time — compute vs network vs wait. An extension table (not from the paper):
// the per-phase attribution behind Tables 1-4's end-to-end times.
func Utilization(cfg Config) (*Table, error) {
	a := Cage11Like(cfg)
	b, _ := gen.RHSForSolution(a)
	t := &Table{
		ID: "Utilization",
		Title: fmt.Sprintf("critical-path decomposition, cage11-like matrix (n=%d, scale %d)",
			a.Rows, cfg.scale()),
		Header: []string{"cluster", "solver", "time", "compute%", "network%", "wait%", "top critical span"},
		Notes: []string{
			"shares decompose the makespan exactly along the run's critical path (internal/obs)",
		},
	}
	for _, name := range cluster.Names {
		for _, solver := range []string{"dslu", "sync", "async"} {
			cfg.logf("utilization: %s, %s", name, solver)
			plt, err := cluster.ByName(name, 8)
			if err != nil {
				return nil, err
			}
			x := cfg.artifacts(name + "-" + solver)
			ex, err := x.Begin()
			if err != nil {
				return nil, err
			}
			rec := ex.Rec
			c, _, err := cfg.solve(plt, a, b, runSpec{
				dslu: solver == "dslu", opts: core.Options{Async: solver == "async"}, rec: rec,
			})
			if err != nil {
				return nil, err
			}
			row := []string{name, solver, c.timeStr(), "-", "-", "-", "-"}
			if c.ok {
				makespan := c.time
				if cp := obs.CriticalPath(rec); cp != nil && cp.Makespan > 0 {
					makespan = cp.Makespan
					pct := func(v float64) string { return fmt.Sprintf("%.1f", 100*v/cp.Makespan) }
					row[3], row[4], row[5] = pct(cp.Compute), pct(cp.Network), pct(cp.Wait)
					if top := cp.TopK(1); len(top) > 0 {
						row[6] = fmt.Sprintf("%s %s %s", top[0].Cat, top[0].Name, fmtSec(top[0].Dur()))
					}
					if cfg.CriticalPath {
						for i, s := range cp.TopK(3) {
							t.Notes = append(t.Notes, fmt.Sprintf("%s/%s critical #%d: %s %s [%.4f, %.4f] %s",
								name, solver, i+1, s.Cat, s.Name, s.Start, s.End, fmtSec(s.Dur())))
						}
					}
				}
				if _, err := ex.Finish(makespan); err != nil {
					return nil, err
				}
				if x.TraceJSON != "" {
					cfg.logf("utilization: trace written to %s", x.TraceJSON)
				}
				if x.MetricsOut != "" {
					cfg.logf("utilization: metrics written to %s.metrics.{json,csv}", x.MetricsOut)
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}
