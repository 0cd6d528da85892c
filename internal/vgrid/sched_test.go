package vgrid

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// pickNextScan selects the lane's process with the earliest next event by
// scanning every process — the pre-index O(P) scheduler, kept as the oracle
// the indexed scheduler is checked against (always single-lane, so the scan
// covers the whole engine). For a blocked process the next event is the
// earliest matching message arrival (clamped to its clock) or its receive
// deadline, whichever comes first; ready processes resume at their own
// clock, deferred ones no earlier than the end of their cost floor. Under a
// fault plan every candidate time is clamped past the outage
// windows of the process's host; a process whose host never returns is
// unschedulable. Ties go to the lowest process ID.
func (ln *lane) pickNextScan() (best *Proc, at float64, msg *Message) {
	fs := ln.eng.faults
	at = math.Inf(1)
	for _, p := range ln.procs {
		var t float64
		var dm *Message
		switch p.st() {
		case stateReady, stateComputing:
			t = p.clock
		case stateDeferred:
			// The end of the segment's cost floor — a lower bound on the
			// true resume time; the lane loop resolves the bound before
			// committing to any later event.
			t = p.until
		case stateBlocked:
			t = p.until
			if m := p.earliestMatch(); m != nil {
				if ta := math.Max(p.clock, m.Arrival); ta <= t {
					t, dm = ta, m
				}
			}
			if math.IsInf(t, 1) {
				continue
			}
		default:
			continue
		}
		if fs != nil {
			t = fs.wake(p.host, t)
			if math.IsInf(t, 1) {
				continue
			}
		}
		if t < at || (t == at && (best == nil || p.ID < best.ID)) {
			best, at, msg = p, t, dm
		}
	}
	return best, at, msg
}

// checkHeap panics unless the lane's index is a heap under idxLess whose
// entries each know their slot, and the pick p (nil or not) is out of it.
func (ln *lane) checkHeap(p *Proc) {
	for i, q := range ln.idx {
		if q.heapPos != i {
			panic(fmt.Sprintf("vgrid: heap entry %s at slot %d records heapPos %d", q.Name, i, q.heapPos))
		}
		if i > 0 && idxLess(q, ln.idx[(i-1)/2]) {
			panic(fmt.Sprintf("vgrid: heap order broken at slot %d (%s)", i, q.Name))
		}
	}
	if p != nil && p.heapPos != -1 {
		panic(fmt.Sprintf("vgrid: pick %s still records heapPos %d", p.Name, p.heapPos))
	}
}

// scanOracle installs the reference scan as the engine's per-pick
// cross-check: every pick of the scheduler index must be the process, time
// and delivered message the scan selects, taken out of a well-formed heap
// (checkHeap), or the run panics. The returned
// counter holds the number of checked picks that the lane loop commits
// (a pick on a deferred segment's lower bound is resolved and re-picked,
// and the final empty pick ends the run).
func scanOracle(e *Engine) *int64 {
	name := func(p *Proc) string {
		if p == nil {
			return "<none>"
		}
		return p.Name
	}
	commits := new(int64)
	e.crossCheck = func(ln *lane, p *Proc, at float64, deliver *Message) {
		sp, sat, sm := ln.pickNextScan()
		if sp != p || (p != nil && (sat != at || sm != deliver)) {
			panic(fmt.Sprintf("vgrid: scheduler index divergence: heap picked (%v, %v, %v), scan picked (%v, %v, %v)",
				name(p), at, deliver, name(sp), sat, sm))
		}
		ln.checkHeap(p)
		if p != nil && p.st() != stateDeferred {
			*commits++
		}
	}
	return commits
}

// randWorkload spawns nprocs processes on the platform's first hosts, each
// executing a seeded pseudo-random mix of every scheduler-visible primitive:
// declared and deferred computes, sleeps, fate-reporting sends and
// timeout-bounded receives. The mix is a pure function of (seed, proc, step),
// so two engines running it produce the same virtual history regardless of
// scheduler implementation or worker count.
func randWorkload(e *Engine, pl *Platform, nprocs, steps int, seed int64) {
	procs := make([]*Proc, nprocs)
	for i := 0; i < nprocs; i++ {
		i := i
		procs[i] = e.Spawn(pl.Hosts[i], fmt.Sprintf("p%d", i), func(p *Proc) error {
			for s := 0; s < steps; s++ {
				at := p.ID*steps + s
				r := synthU01(seed, at)
				amt := synthU01(seed+1, at)
				switch {
				case r < 0.30:
					p.Compute(1e4 * (1 + 40*amt))
				case r < 0.45:
					// A floor anywhere from 0 to the whole cost: its end lands
					// inside or across the crash and degrade windows.
					cost := 1e4 * (1 + 25*amt)
					p.ComputeDeferred(cost*synthU01(seed+2, at), func() float64 { return cost })
				case r < 0.55:
					p.Sleep(2e-4 * (1 + 9*amt))
				case r < 0.80:
					dst := procs[int(amt*float64(nprocs))%nprocs]
					if dst != p {
						if _, err := p.SendFate(dst, 0, nil, 64+int(amt*512)); err != nil {
							return err
						}
					}
				default:
					p.RecvTimeout(AnySource, AnyTag, 4e-3*(1+amt))
				}
			}
			return nil
		})
	}
}

// runRandScenario executes one fault-laden randomized scenario on a
// synthetic grid and returns its obs record (recordString) and final virtual
// time. crossCheck
// makes the indexed scheduler verify every pick against the reference scan
// (panicking on the first divergence) and asserts that no commit escaped
// the check.
func runRandScenario(t *testing.T, seed int64, crossCheck bool, workers int) (string, float64) {
	t.Helper()
	const nprocs, steps = 20, 50
	pl := Synthetic(nprocs, 4, 0.4, seed)
	e := NewEngine(pl)
	var checked *int64
	if crossCheck {
		checked = scanOracle(e)
	}
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
		t.Fatalf("seed %d (crossCheck=%v workers=%d): %v", seed, crossCheck, workers, err)
	}
	if commits, _ := e.EventStats(); crossCheck && (*checked != commits || commits == 0) {
		t.Fatalf("seed %d (workers=%d): oracle checked %d of %d commits", seed, workers, *checked, commits)
	}
	return recordString(rec), vt
}

// TestSchedulerIndexMatchesScanUnderFaults is the scheduler-index property
// test: on randomized fault-laden scenarios (message loss, link degradation,
// host crash windows, deferred computes), the indexed scheduler must select
// the identical event sequence as the pre-index O(P) scan. Each scenario
// runs three ways — indexed alone, indexed with every pick cross-checked
// against the scan, and cross-checked with a worker pool — and all three
// must produce byte-identical obs records.
func TestSchedulerIndexMatchesScanUnderFaults(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1030} {
		ref, refVT := runRandScenario(t, seed, false, 0)
		if len(ref) == 0 {
			t.Fatalf("seed %d: scenario recorded nothing", seed)
		}
		checked, vt := runRandScenario(t, seed, true, 0)
		if vt != refVT {
			t.Errorf("seed %d: virtual time diverged: cross-checked %g, plain %g", seed, vt, refVT)
		}
		if checked != ref {
			t.Errorf("seed %d: cross-checked record differs from the plain indexed record", seed)
		}
		pooled, pvt := runRandScenario(t, seed, true, 3)
		if pvt != refVT || pooled != ref {
			t.Errorf("seed %d: pooled cross-checked run diverged (vt %g vs %g)", seed, pvt, refVT)
		}
	}
}

// sleepSpan renders one sleep span the way recordString does.
func sleepSpan(track string, start, end float64) string {
	return fmt.Sprintf("%+v\n", obs.Span{Track: track, Cat: obs.CatSleep, Name: "sleep", Start: start, End: end})
}

// TestYieldTieBreaksByID pins the (key, ID) tie-break at the held process:
// two processes become ready at the same virtual instant, one of them by
// yielding. A yielder with the lower ID wins the tie and carries on without a
// coroutine switch (the lane resumes each process twice: at its first pick
// and after the other's slice); one with the higher ID loses it and the other
// process commits first. Each run's obs record is the one the scheduler
// recorded when a yield pushed its process into the heap and popped the
// minimum.
func TestYieldTieBreaksByID(t *testing.T) {
	for _, tc := range []struct {
		name    string
		yielder int // the process that sleeps 1+1 while the other sleeps 2
		order   string
		record  string
	}{
		{"yielder has the lower ID", 0, "p0@1 p0@2 p1@2",
			sleepSpan("p0", 0, 1) + sleepSpan("p1", 0, 2) + sleepSpan("p0", 1, 2)},
		{"yielder has the higher ID", 1, "p1@1 p0@2 p1@2",
			sleepSpan("p0", 0, 2) + sleepSpan("p1", 0, 1) + sleepSpan("p1", 1, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := NewPlatform()
			e := NewEngine(pl)
			rec := &obs.Recorder{}
			e.Observe(rec)
			var order []string
			var resumes [2]int
			for id := range resumes {
				h := pl.AddHost(fmt.Sprintf("h%d", id), 1e9, 0)
				p := e.Spawn(h, fmt.Sprintf("p%d", id), func(p *Proc) error {
					sleeps := []float64{2}
					if p.ID == tc.yielder {
						sleeps = []float64{1, 1}
					}
					for _, dt := range sleeps {
						p.Sleep(dt)
						order = append(order, fmt.Sprintf("%s@%g", p.Name, p.Now()))
					}
					return nil
				})
				next := p.next
				p.next = func() (struct{}, bool) {
					resumes[id]++
					return next()
				}
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(order, " "); got != tc.order {
				t.Errorf("slices ran in order %q, want %q", got, tc.order)
			}
			if resumes != [2]int{2, 2} {
				t.Errorf("lane resumed the processes %v times, want [2 2]", resumes)
			}
			if got := recordString(rec); got != tc.record {
				t.Errorf("obs record:\n%s\nwant:\n%s", got, tc.record)
			}
		})
	}
}

// syntheticGridTrace runs a ring workload with real (pooled) compute
// segments on a 256-host synthetic grid and returns its obs record.
func syntheticGridTrace(t *testing.T, workers int) string {
	t.Helper()
	const hosts, rounds = 256, 4
	pl := Synthetic(hosts, 16, 0.3, 9)
	e := NewEngine(pl)
	e.SetWorkers(workers)
	rec := &obs.Recorder{}
	e.Observe(rec)
	procs := make([]*Proc, hosts)
	for i := 0; i < hosts; i++ {
		i := i
		procs[i] = e.Spawn(pl.Hosts[i], fmt.Sprintf("ring%d", i), func(p *Proc) error {
			next := procs[(i+1)%hosts]
			prev := (i + hosts - 1) % hosts
			acc := 0.0
			for r := 0; r < rounds; r++ {
				flops := 1e5 * float64(1+(i*13+r*7)%31)
				if r%2 == 0 {
					p.ComputeFunc(flops, func() { acc += flops })
				} else {
					p.ComputeDeferred(flops/2, func() float64 { acc += flops; return flops })
				}
				if err := p.Send(next, r, nil, 256); err != nil {
					return err
				}
				p.Recv(prev, r)
			}
			_ = acc
			return nil
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	out := recordString(rec)
	if out == "" {
		t.Fatalf("workers=%d: nothing recorded", workers)
	}
	return out
}

// TestSyntheticTraceByteIdenticalAcrossWorkers pins the determinism contract
// at generator scale: a 256-host synthetic grid running pooled compute
// segments produces byte-identical obs records for 1 and N worker threads.
func TestSyntheticTraceByteIdenticalAcrossWorkers(t *testing.T) {
	ref := syntheticGridTrace(t, 1)
	for _, workers := range []int{2, 4} {
		if syntheticGridTrace(t, workers) != ref {
			t.Errorf("record for workers=%d differs from workers=1", workers)
		}
	}
}

// deferredLateTrace runs the deferred lower-bound scenario and returns its
// obs record (recordString): process A dispatches a deferred compute whose
// true cost (resolved only when the worker finishes, well after the
// scheduler first considers A's optimistic bound) lands far beyond process
// B's interleaved events.
func deferredLateTrace(t *testing.T, workers int) string {
	t.Helper()
	pl := NewPlatform()
	ha := pl.AddHost("ha", 1e6, 0)
	hb := pl.AddHost("hb", 1e6, 0)
	hc := pl.AddHost("hc", 1e6, 0)
	l := NewLink("wire", 1e-5, 1e8)
	pl.SetRoute(ha, hc, l)
	pl.SetRoute(hb, hc, l)
	pl.SetRoute(ha, hb, l)
	e := NewEngine(pl)
	e.SetWorkers(workers)
	rec := &obs.Recorder{}
	e.Observe(rec)
	var c *Proc
	a := e.Spawn(ha, "A", func(p *Proc) error {
		// With no floor the optimistic next-event bound is the dispatch
		// clock (t=0); the true cost resolves to t=0.005, after every event
		// of B. The wall-clock sleep keeps the segment physically unfinished
		// when the scheduler's first pick lands on the bound.
		p.ComputeDeferred(0, func() float64 {
			time.Sleep(2 * time.Millisecond)
			return 5000
		})
		return p.Send(c, 0, nil, 8)
	})
	e.Spawn(hb, "B", func(p *Proc) error {
		for i := 0; i < 5; i++ {
			p.Sleep(5e-4)
			if err := p.Send(c, 1, nil, 8); err != nil {
				return err
			}
		}
		return nil
	})
	c = e.Spawn(hc, "C", func(p *Proc) error {
		for i := 0; i < 5; i++ {
			p.Recv(1, 1)
		}
		p.Recv(a.ID, 0)
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return recordString(rec)
}

// TestDeferredLowerBoundResolvesLate is the regression test for the deferred
// lower-bound subtlety: when a pick lands on a deferred segment's optimistic
// bound, the scheduler must collect the true cost and re-pick instead of
// committing — B's five interleaved sends start before A's send, and the
// record is byte-identical with and without a worker pool.
func TestDeferredLowerBoundResolvesLate(t *testing.T) {
	ref := deferredLateTrace(t, 1)
	got := deferredLateTrace(t, 2)
	if got != ref {
		t.Fatalf("deferred record differs between 1 and 2 workers:\n1: %s\n2: %s", ref, got)
	}
	// The record lists spans by start time, one per line.
	aSend, lastBSend := -1, -1
	for i, line := range strings.Split(got, "\n") {
		switch {
		case strings.HasPrefix(line, "{Track:A Cat:send "):
			aSend = i
		case strings.HasPrefix(line, "{Track:B Cat:send "):
			lastBSend = i
		}
	}
	if aSend < 0 || lastBSend < 0 {
		t.Fatalf("sends missing from the record:\n%s", got)
	}
	if aSend < lastBSend {
		t.Errorf("deferred process committed at its optimistic bound: A's send (line %d) precedes B's last send (line %d)", aSend, lastBSend)
	}
}
