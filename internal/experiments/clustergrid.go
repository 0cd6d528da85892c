// The cluster-grid experiment: a pure event-core scale study. It does not
// reproduce a paper table — it times the simulator itself on generated grids
// of up to 1000 hosts. The workload is a communication ring, chosen because
// every commit point exercises the scheduler index (compute re-keys, send
// deposits, blocked receives) while the per-event work stays trivial, so the
// measured wall-clock is scheduling cost, not solver arithmetic.

package experiments

import "fmt"

// clusterGridPoints are the default scale points of the cluster-grid table;
// the last one is the 1000-host/100k-event target.
var clusterGridPoints = []ringSpec{
	{Hosts: 64, Clusters: 8, Events: 24000, Lanes: 1},
	{Hosts: 256, Clusters: 16, Events: 49152, Lanes: 1},
	{Hosts: 1000, Clusters: 100, Events: 100000, Lanes: 1},
}

// ClusterGrid produces the event-core scale table: hosts × events →
// wall-clock and cost per commit of the single-lane indexed scheduler.
// Config.SynthHosts/SynthClusters, when set, replace the default scale sweep
// with that single grid.
func ClusterGrid(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Cluster grid",
		Title:  "event-core scaling on synthetic grids (indexed scheduler, single lane)",
		Header: []string{"hosts", "clusters", "events", "indexed wall-clock", "ns per commit", "virtual time"},
		Notes: []string{
			"wall-clock is host time simulating the ring workload; the virtual result is identical for any worker count",
		},
	}
	for _, pt := range cfg.ringPoints(clusterGridPoints, 1) {
		cfg.logf("clustergrid: %d hosts / %d clusters", pt.Hosts, pt.Clusters)
		pt.Workers = cfg.Workers
		r, err := ringRun(pt)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pt.Hosts), fmt.Sprint(pt.Clusters), fmt.Sprint(r.Events),
			fmtMs(r.Wall), fmt.Sprintf("%.0f", float64(r.Wall.Nanoseconds())/float64(r.Commits)),
			fmtSec(r.VirtualTime),
		})
	}
	return t, nil
}
