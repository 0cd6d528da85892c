// The event-shard experiment: the sharded event core against the
// single-lane indexed scheduler on the same generated grids and ring
// workload the cluster-grid study uses. The quantity of interest is the
// scheduler's cross-goroutine synchronization volume (Engine.EventStats):
// a single-lane engine pays one central resume/yield handoff per committed
// event, a sharded engine pays one per window barrier plus one per
// serialized WAN turn — everything else commits lane-locally. On a
// multi-core host the lanes also overlap in wall-clock; on a single-core
// runner the sync reduction is the portable record of what sharding
// removes.

package experiments

import "fmt"

// eventShardPoints are the (hosts, clusters, lanes) rows of the event-shard
// table: the cluster-grid scale points at one lane per cluster, plus
// coarser lane counts on the 1000-host grid (several clusters per lane —
// inter-cluster traffic inside a lane still serializes through WAN turns,
// so fewer lanes trade parallelism for fewer barriers).
var eventShardPoints = []ringSpec{
	{Hosts: 64, Clusters: 8, Events: 24000, Lanes: 0},
	{Hosts: 256, Clusters: 16, Events: 49152, Lanes: 0},
	{Hosts: 1000, Clusters: 100, Events: 100000, Lanes: 4},
	{Hosts: 1000, Clusters: 100, Events: 100000, Lanes: 25},
	{Hosts: 1000, Clusters: 100, Events: 100000, Lanes: 0},
}

// EventShard produces the sharded event-core scale table: hosts × lanes →
// wall-clock and cross-goroutine syncs for the single-lane and sharded
// schedulers. Config.SynthHosts/SynthClusters, when set, replace the
// default sweep with that single grid at auto lane count.
func EventShard(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Event shard",
		Title:  "sharded event core on synthetic grids (per-cluster lanes vs single lane)",
		Header: []string{"hosts", "clusters", "lanes", "events", "1-lane wall-clock", "sharded wall-clock", "speedup", "1-lane syncs", "sharded syncs", "sync reduction", "virtual time"},
		Notes: []string{
			"syncs: cross-goroutine synchronization points — every commit on a single lane, window barriers + WAN turns sharded",
			"wall-clock speedup needs one core per lane; the sync reduction is machine-independent",
		},
	}
	type key struct{ hosts, clusters int }
	base := map[key]ringResult{}
	for _, pt := range cfg.ringPoints(eventShardPoints, 0) {
		k := key{pt.Hosts, pt.Clusters}
		ref, ok := base[k]
		if !ok {
			cfg.logf("eventshard: %d hosts / %d clusters, single lane", pt.Hosts, pt.Clusters)
			single := pt
			single.Lanes = 1
			var err error
			ref, err = ringRun(single)
			if err != nil {
				return nil, err
			}
			base[k] = ref
		}
		cfg.logf("eventshard: %d hosts / %d clusters, lanes=%d", pt.Hosts, pt.Clusters, pt.Lanes)
		sh, err := ringRun(pt)
		if err != nil {
			return nil, err
		}
		if sh.VirtualTime != ref.VirtualTime || sh.Commits != ref.Commits {
			return nil, fmt.Errorf("eventshard: lane counts disagree: vt %g vs %g, commits %d vs %d",
				sh.VirtualTime, ref.VirtualTime, sh.Commits, ref.Commits)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pt.Hosts), fmt.Sprint(pt.Clusters), fmt.Sprint(sh.Lanes), fmt.Sprint(sh.Events),
			fmtMs(ref.Wall), fmtMs(sh.Wall),
			fmt.Sprintf("%.1fx", float64(ref.Wall)/float64(sh.Wall)),
			fmt.Sprint(ref.Syncs), fmt.Sprint(sh.Syncs),
			fmt.Sprintf("%.0fx", float64(ref.Syncs)/float64(sh.Syncs)),
			fmtSec(sh.VirtualTime),
		})
	}
	return t, nil
}
