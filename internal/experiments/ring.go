// The synthetic-ring harness shared by the event-core studies (clustergrid,
// eventshard).

package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/vgrid"
)

// ringSpec describes one timed run of the ring workload on a generated grid.
type ringSpec struct {
	// Hosts and Clusters size the synthetic platform (1 ≤ Clusters ≤ Hosts).
	Hosts, Clusters int
	// Events is a target number of scheduler commit points: the round count
	// is chosen so that Hosts × rounds × 3 meets it from above.
	Events int
	// Lanes is the scheduler-lane count handed to Engine.SetLanes: 1 is the
	// single-lane scheduler, 0 one lane per cluster.
	Lanes int
	// Workers sets the engine's worker-thread count (0 keeps the default).
	Workers int
}

// ringResult is one timed ring run. The virtual outcome (Events, Commits,
// VirtualTime) is identical for any lane and worker count — only Syncs and
// Wall change.
type ringResult struct {
	// Events is the number of commit points the workload generates (one
	// compute, one send and one receive per host and round).
	Events int
	// Lanes is the scheduler-lane count the engine resolved to.
	Lanes int
	// Commits is the number of committed event slices.
	Commits int64
	// Syncs is the number of cross-goroutine synchronization points the
	// scheduler needed: every commit on a single-lane engine, window
	// barriers plus serialized WAN turns on a sharded one.
	Syncs int64
	// VirtualTime is the simulated makespan in virtual seconds.
	VirtualTime float64
	// Wall is the host wall-clock time of the simulation (excluding
	// platform construction).
	Wall time.Duration
}

// ringRun times one ring-workload simulation.
func ringRun(s ringSpec) (ringResult, error) {
	if s.Clusters < 1 || s.Clusters > s.Hosts || s.Events < 1 {
		return ringResult{}, fmt.Errorf("experiments: ring needs 1 <= clusters <= hosts and events >= 1 (hosts %d, clusters %d, events %d)",
			s.Hosts, s.Clusters, s.Events)
	}
	rounds := (s.Events + 3*s.Hosts - 1) / (3 * s.Hosts)
	plt := cluster.Synthetic(s.Hosts, s.Clusters, 0.3, 7)
	e := vgrid.NewEngine(plt.Platform)
	e.SetLanes(s.Lanes)
	if s.Workers > 0 {
		e.SetWorkers(s.Workers)
	}
	spawnRing(e, plt, rounds)
	start := time.Now()
	vt, err := e.Run()
	wall := time.Since(start)
	commits, syncs := e.EventStats()
	return ringResult{
		Events:      3 * rounds * s.Hosts,
		Lanes:       e.Lanes(),
		Commits:     commits,
		Syncs:       syncs,
		VirtualTime: vt,
		Wall:        wall,
	}, err
}

// spawnRing builds the event-core study workload: a communication ring over
// the platform's hosts, rounds messages deep. Every commit point exercises
// the scheduler (compute re-keys, send deposits, blocked receives) while
// the per-event work stays trivial, so a timed run measures scheduling
// cost, not solver arithmetic; the ring crosses every cluster boundary, so
// a sharded engine also exercises its serialized WAN turns.
func spawnRing(e *vgrid.Engine, plt *cluster.Platform, rounds int) {
	hosts := len(plt.Hosts)
	procs := make([]*vgrid.Proc, hosts)
	for i := range procs {
		i := i
		procs[i] = e.Spawn(plt.Hosts[i], fmt.Sprintf("ring%d", i), func(p *vgrid.Proc) error {
			// Bodies only run once Run starts, so the slice is fully built by
			// the time this executes.
			next := procs[(i+1)%hosts]
			prev := (i + hosts - 1) % hosts
			for r := 0; r < rounds; r++ {
				// Spread the compute costs so the next-event keys interleave
				// across hosts instead of marching in lockstep.
				p.Compute(1e5 * float64(1+(i*31+r*17)%97))
				if err := p.Send(next, r, nil, 256); err != nil {
					return err
				}
				p.Recv(prev, r)
			}
			return nil
		})
	}
}

// ringPoints returns the runs of an event-core study: its default sweep, or
// — when Config.SynthHosts is set — that single grid at the given lane count
// and the 100k-event target.
func (c Config) ringPoints(sweep []ringSpec, lanes int) []ringSpec {
	if c.SynthHosts <= 0 {
		return sweep
	}
	clusters := c.SynthClusters
	if clusters < 1 {
		clusters = 1
	}
	return []ringSpec{{Hosts: c.SynthHosts, Clusters: clusters, Events: 100000, Lanes: lanes}}
}

// fmtMs renders a wall-clock duration in milliseconds.
func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.1f ms", float64(d)/float64(time.Millisecond))
}
