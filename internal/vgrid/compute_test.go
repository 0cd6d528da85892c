package vgrid

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
)

// runComputeScenario spawns nproc processes that alternate declared compute
// segments with sleeps, records the run (recordString) and returns the record
// with the per-process side effects and the end time.
func runComputeScenario(t *testing.T, workers int, segWall time.Duration) (string, []float64, float64) {
	t.Helper()
	const nproc = 4
	pl := NewPlatform()
	hosts := make([]*Host, nproc)
	for i := range hosts {
		hosts[i] = pl.AddHost("h", 1e9, 0)
	}
	e := NewEngine(pl)
	e.SetWorkers(workers)
	rec := &obs.Recorder{}
	e.Observe(rec)

	results := make([]float64, nproc)
	for i := 0; i < nproc; i++ {
		i := i
		e.Spawn(hosts[i], "p", func(p *Proc) error {
			acc := float64(i)
			for it := 0; it < 3; it++ {
				p.ComputeFunc(1e9*float64(i+1), func() {
					if segWall > 0 {
						time.Sleep(segWall)
					}
					acc = acc*3 + float64(it)
				})
				p.Sleep(0.001)
			}
			results[i] = acc
			return nil
		})
	}
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return recordString(rec), results, end
}

// TestComputeFuncDeterministic is the scheduler-level determinism check: the
// obs record, the side effects and the end time must be identical whether the
// segments run inline (1 worker) or on a pool of 4.
func TestComputeFuncDeterministic(t *testing.T) {
	tr1, res1, end1 := runComputeScenario(t, 1, 0)
	tr4, res4, end4 := runComputeScenario(t, 4, 0)
	if tr1 != tr4 {
		t.Fatalf("records differ between 1 and 4 workers:\n--- 1 worker ---\n%s--- 4 workers ---\n%s", tr1, tr4)
	}
	if end1 != end4 {
		t.Fatalf("end time differs: %v vs %v", end1, end4)
	}
	for i := range res1 {
		if res1[i] != res4[i] {
			t.Fatalf("proc %d side effect differs: %v vs %v", i, res1[i], res4[i])
		}
	}
}

// TestComputeFuncMatchesCompute: a declared segment must charge exactly the
// same virtual time as the plain Compute primitive.
func TestComputeFuncMatchesCompute(t *testing.T) {
	run := func(useFunc bool) float64 {
		pl := NewPlatform()
		h := pl.AddHost("h", 2e9, 0)
		e := NewEngine(pl)
		e.Spawn(h, "p", func(p *Proc) error {
			if useFunc {
				p.ComputeFunc(4e9, func() {})
			} else {
				p.Compute(4e9)
			}
			return nil
		})
		end, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("Compute end %v != ComputeFunc end %v", a, b)
	}
}

// TestComputeFuncOverlap: with several workers, segments of different
// processes must actually overlap in wall-clock time.
func TestComputeFuncOverlap(t *testing.T) {
	const seg = 30 * time.Millisecond
	start := time.Now()
	runComputeScenario(t, 1, seg)
	serial := time.Since(start)

	start = time.Now()
	runComputeScenario(t, 4, seg)
	overlapped := time.Since(start)

	// 4 procs × 3 segments × 30 ms = 360 ms serial; fully overlapped is
	// ~90 ms. Require a clear gap without being flaky on loaded machines.
	if overlapped >= serial*2/3 {
		t.Fatalf("no overlap: serial %v, 4 workers %v", serial, overlapped)
	}
}

// TestComputeFuncPanic: a panic inside a pooled segment must surface as the
// owning process's error, same as a panic in the process body.
func TestComputeFuncPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		pl := NewPlatform()
		h := pl.AddHost("h", 1e9, 0)
		e := NewEngine(pl)
		e.SetWorkers(workers)
		e.Spawn(h, "boom", func(p *Proc) error {
			p.ComputeFunc(1e6, func() { panic("segment exploded") })
			return nil
		})
		_, err := e.Run()
		if err == nil || !strings.Contains(err.Error(), "segment exploded") {
			t.Fatalf("workers=%d: want segment panic surfaced as error, got %v", workers, err)
		}
	}
}

// TestComputeFuncConcurrencyBound: no more than SetWorkers segments may be
// in flight at once.
func TestComputeFuncConcurrencyBound(t *testing.T) {
	const nproc, workers = 8, 2
	pl := NewPlatform()
	hosts := make([]*Host, nproc)
	for i := range hosts {
		hosts[i] = pl.AddHost("h", 1e9, 0)
	}
	e := NewEngine(pl)
	e.SetWorkers(workers)
	var inFlight, peak atomic.Int64
	for i := 0; i < nproc; i++ {
		e.Spawn(hosts[i], "p", func(p *Proc) error {
			p.ComputeFunc(1e9, func() {
				cur := inFlight.Add(1)
				for {
					old := peak.Load()
					if cur <= old || peak.CompareAndSwap(old, cur) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				inFlight.Add(-1)
			})
			return nil
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("segments never overlapped (peak %d)", p)
	}
}

func TestSetWorkersAfterRunPanics(t *testing.T) {
	pl := NewPlatform()
	pl.AddHost("h", 1e9, 0)
	e := NewEngine(pl)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetWorkers after Run did not panic")
		}
	}()
	e.SetWorkers(2)
}

// TestComputeDeferredCommitsBeforeReturn pins the invariant the solver
// drivers lean on when they run
//
//	c.ComputeDeferred(floor, func() float64 { fact, factErr = solver.Factor(...); ... })
//	if factErr != nil { ... }
//
// reading factErr immediately after the call: by the time ComputeDeferred
// returns, the deferred fn has fully completed on whatever worker executed
// it, its writes to process-local state are visible to the process goroutine,
// and its measured cost has been charged to the clock. The scheduler
// guarantees this by collecting the segment (<-p.computing) before the
// process is committed and resumed, never after.
func TestComputeDeferredCommitsBeforeReturn(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const nproc = 4
		pl := NewPlatform()
		hosts := make([]*Host, nproc)
		for i := range hosts {
			hosts[i] = pl.AddHost("h", 1e9, 0)
		}
		e := NewEngine(pl)
		e.SetWorkers(workers)
		var inFlight, peak int32
		for i := 0; i < nproc; i++ {
			i := i
			e.Spawn(hosts[i], "p", func(p *Proc) error {
				for it := 0; it < 3; it++ {
					var err error
					committed := false
					before := p.Now()
					cost := 1e9 * float64(i+it+1)
					p.ComputeDeferred(cost/2, func() float64 {
						n := atomic.AddInt32(&inFlight, 1)
						for {
							old := atomic.LoadInt32(&peak)
							if n <= old || atomic.CompareAndSwapInt32(&peak, old, n) {
								break
							}
						}
						time.Sleep(time.Millisecond)
						// Process-local writes, like a factorization's
						// (fact, factErr) pair. Intentionally unsynchronized:
						// the race detector flags the commit protocol if it
						// ever lets these races with the read below.
						err = nil
						committed = true
						atomic.AddInt32(&inFlight, -1)
						return cost
					})
					if !committed {
						t.Errorf("proc %d it %d: deferred fn had not completed when ComputeDeferred returned", i, it)
					}
					if err != nil {
						t.Errorf("proc %d it %d: unexpected err", i, it)
					}
					if got := p.Now() - before; got < cost/1e9-1e-9 {
						t.Errorf("proc %d it %d: cost not charged before return: clock advanced %v, want >= %v", i, it, got, cost/1e9)
					}
					p.Sleep(0.0005)
				}
				return nil
			})
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if workers > 1 && peak < 2 {
			t.Logf("workers=%d: deferred segments never overlapped (peak %d); invariant still checked", workers, peak)
		}
	}
}

// TestDeferredFloorOverlapsTiedProcesses: k processes tied at t = 0 each
// dispatch a deferred segment with a positive cost floor. On 2 workers every
// segment must be dispatched before the first one is collected — each
// segment waits, with a timeout, until all k bodies have reached their
// dispatch, which never happens if the lane blocks on the first segment it
// dispatched — and the obs export must be the bytes of the inline
// (workers = 1) run.
func TestDeferredFloorOverlapsTiedProcesses(t *testing.T) {
	const k = 6
	run := func(workers int) (export []byte, late bool) {
		pl := NewPlatform()
		hosts := make([]*Host, k)
		for i := range hosts {
			hosts[i] = pl.AddHost(fmt.Sprintf("h%d", i), 1e9, 0)
		}
		e := NewEngine(pl)
		e.SetWorkers(workers)
		rec := &obs.Recorder{}
		e.Observe(rec)
		var dispatched atomic.Int32
		var timedOut atomic.Bool
		allIn := make(chan struct{})
		for i := 0; i < k; i++ {
			i := i
			e.Spawn(hosts[i], fmt.Sprintf("p%d", i), func(p *Proc) error {
				cost := 1e8 * float64(k-i) // the segments end in reverse order
				if dispatched.Add(1) == k {
					close(allIn)
				}
				p.ComputeDeferred(cost/4, func() float64 {
					if workers > 1 {
						select {
						case <-allIn:
						case <-time.After(5 * time.Second):
							timedOut.Store(true)
						}
					}
					return cost
				})
				p.Sleep(1e-3)
				return nil
			})
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := obs.WriteTraceJSON(&buf, rec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), timedOut.Load()
	}
	ex1, _ := run(1)
	ex2, late := run(2)
	if late {
		t.Fatal("a segment was collected before every tied process had dispatched its own")
	}
	if !bytes.Equal(ex1, ex2) {
		t.Fatal("obs trace export differs between 1 and 2 workers")
	}
}

// TestDeferredBelowFloorFails: a segment that measures less than the floor it
// was dispatched with fails its process with an error, inline or pooled.
func TestDeferredBelowFloorFails(t *testing.T) {
	for _, workers := range []int{1, 2} {
		pl := NewPlatform()
		h := pl.AddHost("h", 1e9, 0)
		g := pl.AddHost("g", 1e9, 0)
		e := NewEngine(pl)
		e.SetWorkers(workers)
		e.Spawn(h, "short", func(p *Proc) error {
			p.ComputeDeferred(2e6, func() float64 { return 1e6 })
			return nil
		})
		e.Spawn(g, "peer", func(p *Proc) error {
			p.Compute(5e6)
			return nil
		})
		_, err := e.Run()
		if err == nil || !strings.Contains(err.Error(), "below its declared floor") {
			t.Fatalf("workers=%d: want the short segment to fail its process, got %v", workers, err)
		}
	}
}

// shortRing runs a ring of processes on a heterogeneous 8-host grid, each
// round a ComputeFunc segment declaring flops(i, r) then a message to the next
// process, and returns the engine after Run with the obs record and every
// process's accumulated segment results.
func shortRing(t *testing.T, workers int, flops func(i, r int) float64) (*Engine, string, []float64) {
	t.Helper()
	const nproc, rounds = 8, 5
	pl := Synthetic(nproc, 2, 0.3, 5)
	e := NewEngine(pl)
	e.SetWorkers(workers)
	rec := &obs.Recorder{}
	e.Observe(rec)
	results := make([]float64, nproc)
	procs := make([]*Proc, nproc)
	for i := range procs {
		procs[i] = e.Spawn(pl.Hosts[i], fmt.Sprintf("p%d", i), func(p *Proc) error {
			for r := 0; r < rounds; r++ {
				f := flops(i, r)
				p.ComputeFunc(f, func() { results[i] = results[i]*3 + f })
				if err := p.Send(procs[(i+1)%nproc], r, nil, 64); err != nil {
					return err
				}
				p.Recv((i+nproc-1)%nproc, r)
			}
			return nil
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return e, recordString(rec), results
}

// TestComputeFuncInlinesShortSegments: on a 4-worker engine a segment
// declaring less than InlineFlops runs inline — processes with only such
// segments never start the pool — one declaring exactly InlineFlops is
// dispatched, and a ring whose segments fall on both sides of the constant
// leaves the record and the results of the one-worker run.
func TestComputeFuncInlinesShortSegments(t *testing.T) {
	if e, _, _ := shortRing(t, 4, func(i, r int) float64 { return InlineFlops - 1 - float64(i*r) }); e.jobs != nil {
		t.Error("segments below InlineFlops started the worker pool")
	}
	if e, _, _ := shortRing(t, 4, func(i, r int) float64 {
		if i == 3 && r == 2 {
			return InlineFlops
		}
		return 1
	}); e.jobs == nil {
		t.Error("a segment declaring InlineFlops ran inline")
	}
	mixed := func(i, r int) float64 { return InlineFlops * (0.25 + 0.25*float64((i+r)%7)) }
	_, rec1, res1 := shortRing(t, 1, mixed)
	e4, rec4, res4 := shortRing(t, 4, mixed)
	if e4.jobs == nil {
		t.Fatal("the mixed ring never dispatched a segment")
	}
	if rec1 != rec4 {
		t.Fatalf("records differ between 1 and 4 workers:\n--- 1 worker ---\n%s--- 4 workers ---\n%s", rec1, rec4)
	}
	for i := range res1 {
		if res1[i] != res4[i] {
			t.Fatalf("p%d: segment results %v vs %v", i, res1[i], res4[i])
		}
	}
}

// TestDispatchAllocs: a dispatched segment reuses its process's completion
// channel, so after its first segment a process dispatching segments above
// the threshold allocates nothing per segment — doubling them must not add
// an object.
func TestDispatchAllocs(t *testing.T) {
	run := func(segs int) uint64 {
		pl := NewPlatform()
		h := pl.AddHost("h", 1e9, 0)
		e := NewEngine(pl)
		e.SetWorkers(2)
		fn := func() {}
		e.Spawn(h, "p", func(p *Proc) error {
			for k := 0; k < segs; k++ {
				p.ComputeFunc(2*InlineFlops, fn)
			}
			return nil
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := e.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if e.jobs == nil {
			t.Fatal("no segment was dispatched")
		}
		return after.Mallocs - before.Mallocs
	}
	const segs = 2000
	run(segs) // warm-up: one-time runtime allocations
	short, long := run(segs), run(2*segs)
	t.Logf("%d segments: %d objects; %d segments: %d objects", segs, short, 2*segs, long)
	// A handful of objects either way is the runtime's (timer, stack growth).
	if extra := int64(long) - int64(short); extra > 20 {
		t.Errorf("%d more dispatched segments allocated %d more objects", segs, extra)
	}
}

// BenchmarkComputeFuncHandoff grounds InlineFlops: the host price of one
// trivial ComputeFunc segment of a lone process on a 2-worker engine, handed
// to the pool ("pooled", declared at InlineFlops) or run inline ("inline",
// declared just below). One op is one segment; EXPERIMENTS.md ("Host price —
// inline segments") quotes this host's numbers.
func BenchmarkComputeFuncHandoff(b *testing.B) {
	for _, c := range []struct {
		name  string
		flops float64
	}{{"pooled", InlineFlops}, {"inline", InlineFlops - 1}} {
		b.Run(c.name, func(b *testing.B) {
			pl := NewPlatform()
			h := pl.AddHost("h", 1e9, 0)
			e := NewEngine(pl)
			e.SetWorkers(2)
			fn := func() {}
			e.Spawn(h, "p", func(p *Proc) error {
				for k := 0; k < b.N; k++ {
					p.ComputeFunc(c.flops, fn)
				}
				return nil
			})
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestProcSizeClass: grid1000_events spawns a thousand processes, and Proc
// fills its 320-byte allocation size class exactly — a field more moves every
// process up a class.
func TestProcSizeClass(t *testing.T) {
	if s := unsafe.Sizeof(Proc{}); s > 320 {
		t.Fatalf("Proc is %d bytes, past its 320-byte size class", s)
	}
}

// TestMessageSizeClass: every send takes an envelope, and Message fills its
// 80-byte allocation size class exactly — a field more moves every envelope
// up a class.
func TestMessageSizeClass(t *testing.T) {
	if s := unsafe.Sizeof(Message{}); s > 80 {
		t.Fatalf("Message is %d bytes, past its 80-byte size class", s)
	}
}
