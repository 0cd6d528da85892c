package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
)

// TopologyTable measures the topology-aware communication modes on the
// two-site cluster3 grid with a cage-like matrix (an extension beyond the
// paper's tables, quantifying the conclusion's point that grid runs are
// dominated by the inter-site exchanges). The cage sparsity couples every
// band to most others, so the direct synchronous exchange crosses the WAN
// once per coupled rank pair and iteration; the gateway collapses that to
// one message per cluster pair, and the hierarchical collectives do the same
// for the per-iteration convergence reduction.
func TopologyTable(cfg Config) (*Table, error) {
	a := gen.CageLike(11397/cfg.scale(), 1030)
	b, _ := gen.RHSForSolution(a)
	t := &Table{
		ID:    "Topology",
		Title: fmt.Sprintf("topology-aware exchange on cluster3, cage-like matrix (n=%d, scale %d), synchronous", a.Rows, cfg.scale()),
		Header: []string{
			"mode", "time", "iterations", "inter msgs/iter", "inter MB", "speedup",
		},
		Notes: []string{
			"extension: direct = per-pair WAN messages, gateway = per-cluster aggregation, topo = hierarchical collectives",
		},
	}
	modes := []struct {
		name          string
		topo, gateway bool
	}{
		{"direct", false, false},
		{"topo-collectives", true, false},
		{"gateway", false, true},
		{"gateway+topo", true, true},
	}
	jobs := make([]job, len(modes))
	for i, m := range modes {
		jobs[i] = job{what: "topology: " + m.name, a: a, b: b, plt: cluster3,
			spec: runSpec{opts: core.Options{TopoCollectives: m.topo, Gateway: m.gateway}}}
	}
	cells, results, err := cfg.solveAll(jobs)
	if err != nil {
		return nil, err
	}
	baseline := 0.0
	for i, m := range modes {
		c, res := cells[i], results[i]
		row := []string{m.name, c.timeStr(), "-", "-", "-", "-"}
		if c.ok {
			if baseline == 0 {
				baseline = c.time
			}
			row = []string{
				m.name,
				c.timeStr(),
				fmt.Sprint(res.Iterations),
				fmt.Sprintf("%.1f", float64(res.InterMsgs)/float64(res.Iterations)),
				fmt.Sprintf("%.2f", float64(res.InterBytes)/1e6),
				fmt.Sprintf("%.2fx", baseline/c.time),
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
