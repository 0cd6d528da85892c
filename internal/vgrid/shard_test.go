package vgrid

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// shardRun captures everything a sharded run must reproduce byte-identically:
// the final virtual time, the full obs export and the commit count (syncs
// legitimately differ between lane counts).
type shardRun struct {
	vt       float64
	spans    []obs.Span
	samples  []obs.SamplePoint
	counters []obs.CounterTotal
	commits  int64
	lanes    int
}

// runShardScenario executes the randomized fault-laden scheduler workload
// (the same mix TestSchedulerIndexMatchesScanUnderFaults uses: computes,
// deferred computes, sleeps, fate-reporting sends, timeout receives) on a
// 4-cluster synthetic grid with the requested lane and worker counts, pool
// ownership guards armed. The fault plan exercises the sharding edge cases:
// a host crash whose outage opens and closes inside safe windows, a second
// crash straddling window barriers, a WAN drop window and an uplink
// degradation spanning many windows.
func runShardScenario(t *testing.T, seed int64, lanes, workers int) shardRun {
	t.Helper()
	const nprocs, steps = 20, 50
	pl := Synthetic(nprocs, 4, 0.4, seed)
	e := NewEngine(pl)
	e.SetLanes(lanes)
	e.SetPoolCheck(true)
	if workers > 0 {
		e.SetWorkers(workers)
	}
	fp := NewFaultPlan(seed)
	fp.DropOnLink("wan", 0, 1, 0.3)
	fp.DegradeLink("up-site1", 0.002, 0.03, 4, 0.25)
	fp.CrashHost("g3", 0.001, 0.02)
	fp.CrashHost("g11", 0.005, 0.04)
	e.SetFaultPlan(fp)
	rec := &obs.Recorder{}
	e.Observe(rec)
	randWorkload(e, pl, nprocs, steps, seed)
	vt, err := e.Run()
	if err != nil {
		t.Fatalf("seed %d lanes=%d workers=%d: %v", seed, lanes, workers, err)
	}
	commits, syncs := e.EventStats()
	if commits <= 0 || syncs <= 0 {
		t.Fatalf("seed %d lanes=%d: empty event stats (%d, %d)", seed, lanes, commits, syncs)
	}
	if e.Lanes() > 1 && syncs >= commits {
		t.Errorf("seed %d lanes=%d: sharding saved no synchronization (%d syncs / %d commits)", seed, lanes, syncs, commits)
	}
	return shardRun{vt: vt, spans: rec.Spans(), samples: rec.Samples(),
		counters: rec.Counters(), commits: commits, lanes: e.Lanes()}
}

// diffShard fails the test if two runs differ anywhere a deterministic
// engine must agree.
func diffShard(t *testing.T, label string, ref, got shardRun) {
	t.Helper()
	if got.vt != ref.vt {
		t.Errorf("%s: virtual time %g, want %g", label, got.vt, ref.vt)
	}
	if got.commits != ref.commits {
		t.Errorf("%s: %d commits, want %d", label, got.commits, ref.commits)
	}
	if !reflect.DeepEqual(got.spans, ref.spans) {
		i := 0
		for i < len(ref.spans) && i < len(got.spans) && got.spans[i] == ref.spans[i] {
			i++
		}
		t.Errorf("%s: obs spans diverge at %d/%d (want %+v)", label, i, len(ref.spans), ref.spans[min(i, len(ref.spans)-1)])
	}
	if !reflect.DeepEqual(got.samples, ref.samples) {
		t.Errorf("%s: obs samples diverge (%d vs %d points)", label, len(got.samples), len(ref.samples))
	}
	if !reflect.DeepEqual(got.counters, ref.counters) {
		t.Errorf("%s: obs counters diverge", label)
	}
}

// TestShardedMatchesSingleLaneUnderFaults is the sharding property test: on
// randomized fault-laden scenarios, the sharded engine must produce the
// byte-identical obs export (spans, samples, counters — including
// emission order), virtual time and commit count as the single-lane indexed
// scheduler, for every lane count (2, auto = one per cluster) and with a
// worker pool. It also asserts the point of the exercise: a sharded run
// needs strictly fewer cross-goroutine synchronizations than commits.
func TestShardedMatchesSingleLaneUnderFaults(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1030} {
		ref := runShardScenario(t, seed, 1, 0)
		if ref.lanes != 1 {
			t.Fatalf("seed %d: reference run resolved to %d lanes", seed, ref.lanes)
		}
		for _, cfg := range []struct {
			lanes, workers int
		}{{2, 0}, {0, 0}, {0, 3}} {
			got := runShardScenario(t, seed, cfg.lanes, cfg.workers)
			want := cfg.lanes
			if want == 0 {
				want = 4 // auto: one lane per cluster
			}
			if got.lanes != want {
				t.Fatalf("seed %d lanes=%d: resolved to %d lanes, want %d", seed, cfg.lanes, got.lanes, want)
			}
			diffShard(t, fmt.Sprintf("seed %d lanes=%d workers=%d", seed, cfg.lanes, cfg.workers), ref, got)
		}
	}
}

// TestShardedLookaheadMaterializesNoRoutes pins that the safe-window
// lookahead reads the lazy router's representative routes without memoizing
// them: after a sharded ring on a 1000-host, 100-cluster synthetic grid, the
// route table holds exactly the ring's 1000 communicating pairs, not the
// 100·99 representative pairs on top.
func TestShardedLookaheadMaterializesNoRoutes(t *testing.T) {
	pl := Synthetic(1000, 100, 0.3, 1)
	e := NewEngine(pl)
	e.SetLanes(0)
	spawnRing(e, pl, 1)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Lanes() != 100 {
		t.Fatalf("resolved to %d lanes, want 100", e.Lanes())
	}
	if n := len(pl.routes); n != 1000 {
		t.Errorf("route table holds %d pairs, want the ring's 1000", n)
	}
}

// TestShardedFallsBackToSingleLane pins the guardrails: topologies and
// configurations that cannot shard resolve to one lane instead of
// miscomputing — no clusters, clusterless hosts, the per-pick cross-check
// against the reference scan, and a zero lookahead override.
func TestShardedFallsBackToSingleLane(t *testing.T) {
	run := func(name string, mk func() *Engine) {
		e := mk()
		ping(t, e)
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Lanes() != 1 {
			t.Errorf("%s: resolved to %d lanes, want 1", name, e.Lanes())
		}
	}
	run("flat platform", func() *Engine {
		pl := NewPlatform()
		a := pl.AddHost("a", 1e9, 0)
		b := pl.AddHost("b", 1e9, 0)
		l := NewLink("l", 1e-3, 1e8)
		pl.AddLinks(l)
		pl.SetRoute(a, b, l)
		e := NewEngine(pl)
		e.SetLanes(0)
		return e
	})
	run("cross-checked scheduler", func() *Engine {
		e := NewEngine(Synthetic(8, 2, 0, 1))
		e.SetLanes(0)
		scanOracle(e)
		return e
	})
}

// ping spawns a two-process request/reply pair on the platform's first two
// hosts (helper for the fallback tests).
func ping(t *testing.T, e *Engine) {
	t.Helper()
	hosts := e.Platform.Hosts
	var a, b *Proc
	a = e.Spawn(hosts[0], "a", func(p *Proc) error {
		if err := p.Send(b, 1, nil, 64); err != nil {
			return err
		}
		p.Recv(b.ID, 2)
		return nil
	})
	b = e.Spawn(hosts[1], "b", func(p *Proc) error {
		p.Recv(a.ID, 1)
		return p.Send(a, 2, nil, 64)
	})
	_ = a
}

// TestShardedRejectsSharedLinks pins the link-ownership guard: a topology
// whose intra-cluster routes share a link across lanes (here literally the
// same link used inside two clusters) fails the run with ErrUnshardable
// instead of silently racing on the link's queue state.
func TestShardedRejectsSharedLinks(t *testing.T) {
	_, err := sharedLinkEngine().Run()
	if !errors.Is(err, ErrUnshardable) || !strings.Contains(err.Error(), `link "shared" is shared between scheduler lanes`) {
		t.Fatalf("want ErrUnshardable naming the link, got %v", err)
	}
}

// sharedLinkEngine builds the two-lane run TestShardedRejectsSharedLinks
// describes; its two receivers are still blocked when Run gives up.
func sharedLinkEngine() *Engine {
	pl := NewPlatform()
	var hosts []*Host
	for i := 0; i < 4; i++ {
		hosts = append(hosts, pl.AddHost(fmt.Sprintf("h%d", i), 1e9, 0))
	}
	pl.AddCluster("c0", hosts[0], hosts[1])
	pl.AddCluster("c1", hosts[2], hosts[3])
	shared := NewLink("shared", 1e-4, 1e8)
	wan := NewLink("wan", 1e-2, 1e7)
	pl.AddLinks(shared, wan)
	pl.SetRouter(func(a, b *Host) []*Link {
		if a.cluster == b.cluster {
			return []*Link{shared}
		}
		return []*Link{wan}
	})
	e := NewEngine(pl)
	e.SetLanes(2)
	procs := make([]*Proc, 4)
	for i := range procs {
		i := i
		procs[i] = e.Spawn(hosts[i], fmt.Sprintf("p%d", i), func(p *Proc) error {
			peer := procs[i^1] // intra-cluster partner: both pairs hit the shared link
			if i%2 == 0 {
				// The verdict must not depend on the process passing the
				// send's error on: the receivers stall either way.
				p.Send(peer, 0, nil, 64)
			} else {
				p.Recv(peer.ID, 0)
			}
			return nil
		})
	}
	return e
}

// TestShardedLookaheadGuard pins the horizon guard: an explicit lookahead
// wider than the platform's actual inter-cluster delay makes a cross-lane
// message arrive below the window horizon, and the engine panics with the
// lookahead diagnostic instead of committing a causality violation.
func TestShardedLookaheadGuard(t *testing.T) {
	pl := Synthetic(8, 2, 0, 3)
	e := NewEngine(pl)
	e.SetLanes(2)
	e.SetLookahead(1) // far beyond the ~10 ms WAN route delay
	var a, b *Proc
	a = e.Spawn(pl.Hosts[0], "a", func(p *Proc) error {
		p.Sleep(1e-4)
		return p.Send(b, 1, nil, 64)
	})
	b = e.Spawn(pl.Hosts[7], "b", func(p *Proc) error {
		p.Recv(a.ID, 1)
		return nil
	})
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "lookahead violated") {
		t.Fatalf("want a lookahead-violation diagnostic, got %v", err)
	}
}

// TestLookaheadResolution pins the derived safe-window width: the synthetic
// grid's minimum inter-cluster route latency (uplink + wan + uplink), shaved
// by the float-safety margin, and scaled below fault-plan latency factors
// under 1.
func TestLookaheadResolution(t *testing.T) {
	pl := Synthetic(8, 2, 0, 1)
	want := 2 * SynthWanLatency // half-latency uplinks + wan backbone
	e := NewEngine(pl)
	if got := e.resolveLookahead(); math.Abs(got-want*(1-1e-9)) > 1e-15 {
		t.Errorf("lookahead %g, want %g", got, want*(1-1e-9))
	}
	e2 := NewEngine(pl)
	fp := NewFaultPlan(1)
	fp.DegradeLink("wan", 0, 1, 0.5, 1)
	e2.SetFaultPlan(fp)
	if got := e2.resolveLookahead(); math.Abs(got-0.5*want*(1-1e-9)) > 1e-15 {
		t.Errorf("degraded lookahead %g, want %g", got, 0.5*want*(1-1e-9))
	}
}
