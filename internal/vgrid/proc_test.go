package vgrid

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// settledGoroutines polls runtime.NumGoroutine until it is at most want or
// two seconds pass: the lane and pool-worker goroutines of a run end on a
// closed channel, a moment after Run returns.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestRunLeavesNoGoroutines: whatever way Run ends, the coroutines of the
// processes it did not finish end with it — blocked at a deadlock (single
// lane and sharded), stalled behind an unshardable topology, or never started
// because the fault plan did not resolve.
func TestRunLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Engine
		want  error
		msg   string // the whole error, where the PR 20 engine's is on record
	}{
		{"deadlock", func() *Engine {
			pl, a, b := twoHostPlatform(0.001, 1e9)
			e := NewEngine(pl)
			e.SetWorkers(2)
			e.Spawn(a, "p0", func(p *Proc) error {
				p.ComputeFunc(1e6, func() {})
				p.Recv(AnySource, 1) // nobody ever sends
				return nil
			})
			e.Spawn(b, "p1", func(p *Proc) error { return nil })
			return e
		}, ErrDeadlock, "vgrid: deadlock: all processes blocked: p0"},
		{"sharded deadlock", func() *Engine {
			pl := Synthetic(8, 2, 0, 3)
			e := NewEngine(pl)
			e.SetLanes(0)
			e.SetFaultPlan(NewFaultPlan(1).CrashHost("g6", 0.0001, math.Inf(1)))
			procs := make([]*Proc, 8)
			for i := range procs {
				procs[i] = e.Spawn(pl.Hosts[i], fmt.Sprintf("p%d", i), func(p *Proc) error {
					p.Send(procs[(i+4)%8], 0, nil, 64) // one WAN turn each
					p.Recv(AnySource, 0)
					if i%3 == 0 {
						p.Recv(AnySource, 1) // nobody ever sends
					}
					return nil
				})
			}
			return e
		}, ErrDeadlock, "vgrid: deadlock: all processes blocked: lane 0 [clock=0.010205 next=+Inf horizon=0.020026]: p0, p3; lane 1 [clock=0.010102 next=+Inf horizon=0.020026]: p6 (host down)"},
		{"unshardable", sharedLinkEngine, ErrUnshardable, ""},
		{"early error", func() *Engine {
			pl, a, b := twoHostPlatform(0.001, 1e9)
			e := NewEngine(pl)
			fp := NewFaultPlan(1)
			fp.CrashHost("no-such-host", 0, 1)
			e.SetFaultPlan(fp)
			e.Spawn(a, "p0", func(p *Proc) error { t.Error("body ran"); return nil })
			e.Spawn(b, "p1", func(p *Proc) error { t.Error("body ran"); return nil })
			return e
		}, nil, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := c.build()
			_, err := e.Run()
			if err == nil || (c.want != nil && !errors.Is(err, c.want)) || (c.msg != "" && err.Error() != c.msg) {
				t.Fatalf("err = %v, want %v %q", err, c.want, c.msg)
			}
			// The processes the run stopped keep the state it found them in.
			for _, p := range e.procs {
				if p.stopped && (p.err != nil || p.Done()) {
					t.Errorf("%s: stopped process has err=%v done=%v", p.Name, p.err, p.Done())
				}
			}
			if n := settledGoroutines(base); n > base {
				t.Errorf("%d goroutines after Run, %d before Spawn", n, base)
			}
		})
	}
}

// TestStoppedBodyUnwinds: a body left suspended at a deadlock is unwound
// through its deferred calls when Run stops it, a deferred primitive or a
// recover in the body notwithstanding, and Run reports what it would have
// reported without them.
func TestStoppedBodyUnwinds(t *testing.T) {
	pl, a, _ := twoHostPlatform(0.001, 1e9)
	e := NewEngine(pl)
	unwound := 0
	e.Spawn(a, "p0", func(p *Proc) error {
		defer func() { recover() }()
		defer p.Compute(1)
		defer func() { unwound++ }()
		p.Recv(AnySource, 1)
		return errors.New("not reached")
	})
	_, err := e.Run()
	if err == nil || err.Error() != "vgrid: deadlock: all processes blocked: p0" {
		t.Fatalf("err = %v", err)
	}
	if unwound != 1 || e.Errors()[0] != nil || e.procs[0].Done() {
		t.Fatalf("unwound %d times, err %v, done %v", unwound, e.Errors()[0], e.procs[0].Done())
	}
}

// TestSpawnAllocBudget holds what one process costs the host from Spawn to
// its body's return: the Proc, the coroutine iter.Pull builds around the body
// (a goroutine descriptor and its closures) and the process's share of the
// engine's tables. The coroutine's stack is the runtime's, not the heap's,
// and is not counted.
func TestSpawnAllocBudget(t *testing.T) {
	const n = 1000
	pl, a, _ := twoHostPlatform(0.001, 1e9)
	run := func() {
		e := NewEngine(pl)
		for i := 0; i < n; i++ {
			e.Spawn(a, "p", func(p *Proc) error { p.Compute(1); return nil })
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: one-time runtime allocations
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	bytes, objects := (after.TotalAlloc-before.TotalAlloc)/n, float64(after.Mallocs-before.Mallocs)/n
	t.Logf("one process: %d bytes, %.2f objects", bytes, objects)
	const maxBytes, maxObjects = 870, 15.6 // measured 725 B, 13.03 objects (a goroutine per process: 597 B, 4.03)
	if bytes > maxBytes {
		t.Errorf("one process allocated %d bytes, budget is %d", bytes, maxBytes)
	}
	if objects > maxObjects {
		t.Errorf("one process allocated %.2f objects, budget is %.1f", objects, maxObjects)
	}
}

// TestWANTurnAllocs: on a sharded run every inter-cluster send parks for a
// serialized WAN turn, and the turn allocates nothing — the request travels
// by value and the grant comes through the lane's own channel. A two-cluster
// ping-pong that releases its envelopes recycles those too, so doubling the
// rounds must not add an object.
func TestWANTurnAllocs(t *testing.T) {
	run := func(rounds int) (mallocs uint64, turns int64) {
		pl := Synthetic(2, 2, 0, 1)
		e := NewEngine(pl)
		e.SetLanes(0)
		procs := make([]*Proc, 2)
		for i := range procs {
			procs[i] = e.Spawn(pl.Hosts[i], fmt.Sprintf("p%d", i), func(p *Proc) error {
				peer := procs[1-i]
				for r := 0; r < rounds; r++ {
					if i == 0 {
						p.Send(peer, r, nil, 64)
					}
					p.ReleaseMessage(p.Recv(peer.ID, r))
					if i == 1 {
						p.Send(peer, r, nil, 64)
					}
				}
				return nil
			})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := e.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if e.Lanes() != 2 {
			t.Fatalf("%d lanes, want 2", e.Lanes())
		}
		return after.Mallocs - before.Mallocs, e.wanTurns
	}
	const rounds = 2000
	run(rounds) // warm-up: one-time runtime allocations
	short, turns := run(rounds)
	long, turns2 := run(2 * rounds)
	if turns != 2*rounds || turns2 != 4*rounds {
		t.Fatalf("WAN turns %d and %d, want %d and %d", turns, turns2, 2*rounds, 4*rounds)
	}
	t.Logf("%d sends: %d objects; %d sends: %d objects", turns, short, turns2, long)
	// A handful of objects either way is the runtime's (timer, stack growth).
	if extra := int64(long) - int64(short); extra > 20 {
		t.Errorf("%d more inter-cluster sends allocated %d more objects", turns2-turns, extra)
	}
}
