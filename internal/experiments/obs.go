package experiments

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
)

// writeFile creates path and streams fn into it.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeObsArtifacts writes the per-run trace/metrics files requested through
// Config.TraceJSON / Config.MetricsOut.
func writeObsArtifacts(cfg Config, key string, rec *obs.Recorder, makespan float64) error {
	if cfg.TraceJSON != "" {
		path := fmt.Sprintf("%s-%s.json", cfg.TraceJSON, key)
		if err := writeFile(path, func(w io.Writer) error { return obs.WriteTraceJSON(w, rec) }); err != nil {
			return err
		}
		cfg.logf("utilization: trace written to %s", path)
	}
	if cfg.MetricsOut != "" {
		m := obs.ComputeMetrics(rec, makespan)
		base := fmt.Sprintf("%s-%s", cfg.MetricsOut, key)
		if err := writeFile(base+".metrics.json", m.WriteJSON); err != nil {
			return err
		}
		if err := writeFile(base+".metrics.csv", m.WriteCSV); err != nil {
			return err
		}
		cfg.logf("utilization: metrics written to %s.metrics.{json,csv}", base)
	}
	return nil
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
	clusters := []struct {
		name    string
		newPlat func() *cluster.Platform
	}{
		{"cluster1", func() *cluster.Platform { return cluster.Cluster1(8, -1) }},
		{"cluster2", func() *cluster.Platform { return cluster.Cluster2(-1) }},
		{"cluster3", func() *cluster.Platform { return cluster.Cluster3(-1) }},
	}
	for _, cd := range clusters {
		for _, solver := range []string{"dslu", "sync", "async"} {
			cfg.logf("utilization: %s, %s", cd.name, solver)
			rec := &obs.Recorder{}
			c, _, err := cfg.solve(cd.newPlat(), a, b, runSpec{
				dslu: solver == "dslu", opts: core.Options{Async: solver == "async"}, rec: rec,
			})
			if err != nil {
				return nil, err
			}
			row := []string{cd.name, solver, c.timeStr(), "-", "-", "-", "-"}
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
								cd.name, solver, i+1, s.Cat, s.Name, s.Start, s.End, fmtSec(s.Dur())))
						}
					}
				}
				if err := writeObsArtifacts(cfg, cd.name+"-"+solver, rec, makespan); err != nil {
					return nil, err
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}
