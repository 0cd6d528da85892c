package obs_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/vgrid"
)

// windowedSolve runs a small multisplitting solve on a 3-cluster synthetic
// grid with the given worker and lane counts and returns the windowed
// exports (JSON then CSV) computed at the fixed test width.
func windowedSolve(t *testing.T, workers, lanes int) (wj, wc []byte) {
	t.Helper()
	rec, end := solveObserved(t, workers, lanes, nil)
	wm := obs.ComputeWindows(rec, testWindowWidth, end, obs.CriticalPath(rec))
	var bj, bc bytes.Buffer
	if err := wm.WriteJSON(&bj); err != nil {
		t.Fatal(err)
	}
	if err := wm.WriteCSV(&bc); err != nil {
		t.Fatal(err)
	}
	return bj.Bytes(), bc.Bytes()
}

// testWindowWidth is the window width shared by the windowed determinism
// tests; fixed so runs with different worker/lane counts window identically.
const testWindowWidth = 0.01

// solveObserved runs the shared multi-cluster workload with a fresh recorder
// attached. When prepare is non-nil it runs on the recorder before launch
// (the streaming tests attach their Streamer there).
func solveObserved(t *testing.T, workers, lanes int, prepare func(*obs.Recorder)) (*obs.Recorder, float64) {
	t.Helper()
	rec := &obs.Recorder{}
	if prepare != nil {
		prepare(rec)
	}
	return rec, solveOn(t, workers, lanes, rec)
}

// solveOn runs the shared multi-cluster workload (12 hosts in 3 clusters so
// lane sharding engages) observed by rec and returns the engine's end time.
func solveOn(t *testing.T, workers, lanes int, rec *obs.Recorder) float64 {
	t.Helper()
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 600, Band: 40, PerRow: 8, Margin: 0.05, Negative: true, Seed: 77})
	b, _ := gen.RHSForSolution(a)
	plt := cluster.Synthetic(12, 3, 0.3, 7)
	e := vgrid.NewEngine(plt.Platform)
	e.SetWorkers(workers)
	e.SetLanes(lanes)
	e.Observe(rec)
	pend, err := core.Launch(e, plt.Hosts, a, b, core.Options{Tol: 1e-8, Overlap: 10})
	if err != nil {
		t.Fatal(err)
	}
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	pend.Finish()
	if !pend.Result().Converged {
		t.Fatal("solve did not converge")
	}
	return end
}

// TestWindowedMetricsDeterministic: the windowed JSON and CSV exports must
// be byte-identical for any worker count and any lane count — the windowed
// layer inherits the aggregate layer's determinism contract.
func TestWindowedMetricsDeterministic(t *testing.T) {
	refJ, refC := windowedSolve(t, 1, 1)
	for _, tc := range []struct {
		name           string
		workers, lanes int
	}{
		{"workers=4/lanes=1", 4, 1},
		{"workers=1/lanes=auto", 1, 0},
		{"workers=4/lanes=auto", 4, 0},
	} {
		wj, wc := windowedSolve(t, tc.workers, tc.lanes)
		if !bytes.Equal(refJ, wj) {
			t.Fatalf("%s: windowed JSON differs from 1 worker / 1 lane", tc.name)
		}
		if !bytes.Equal(refC, wc) {
			t.Fatalf("%s: windowed CSV differs from 1 worker / 1 lane", tc.name)
		}
	}
}

// TestWindowedMatchesAggregate: summing a track's window rows must
// reproduce the aggregate per-host budget, and summing a link's window
// rows its aggregate traffic — windowing refines the aggregate view, it
// must not leak or invent time.
func TestWindowedMatchesAggregate(t *testing.T) {
	rec, end := solveObserved(t, 1, 1, nil)
	m := obs.ComputeMetrics(rec, end)
	wm := obs.ComputeWindows(rec, testWindowWidth, end, nil)

	compute := map[string]float64{}
	wait := map[string]float64{}
	for _, h := range wm.Hosts {
		compute[h.Track] += h.Compute
		wait[h.Track] += h.Wait
	}
	approx := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)) }
	for _, h := range m.Hosts {
		if !approx(compute[h.Track], h.Compute) {
			t.Fatalf("track %s: windowed compute %g vs aggregate %g", h.Track, compute[h.Track], h.Compute)
		}
		if !approx(wait[h.Track], h.Wait) {
			t.Fatalf("track %s: windowed wait %g vs aggregate %g", h.Track, wait[h.Track], h.Wait)
		}
	}
	bytesBy := map[string]float64{}
	msgsBy := map[string]float64{}
	for _, l := range wm.Links {
		bytesBy[l.Link] += l.Bytes
		msgsBy[l.Link] += l.Msgs
	}
	for _, l := range m.Links {
		if !approx(bytesBy[l.Link], float64(l.Bytes)) {
			t.Fatalf("link %s: windowed bytes %g vs aggregate %v", l.Link, bytesBy[l.Link], l.Bytes)
		}
		if !approx(msgsBy[l.Link], float64(l.Msgs)) {
			t.Fatalf("link %s: windowed msgs %g vs aggregate %v", l.Link, msgsBy[l.Link], l.Msgs)
		}
	}
	if wm.Windows < 2 {
		t.Fatalf("expected a multi-window run, got %d windows", wm.Windows)
	}
	if len(wm.CritPath) == 0 && obs.CriticalPath(rec) != nil {
		// ComputeWindows was called without a report on purpose; the split
		// entry point must still work.
		cpw := obs.CriticalPath(rec).Windows(testWindowWidth)
		if len(cpw) == 0 {
			t.Fatal("critical-path windows empty on an instrumented run")
		}
	}
}

// TestWindowedGolden pins the exact export bytes of a tiny hand-built
// recorder: two hosts, one two-window compute span, a link transfer, a
// retry overlay and a residual series.
func TestWindowedGolden(t *testing.T) {
	rec := &obs.Recorder{}
	rec.Span(obs.Span{Track: "h0", Cat: obs.CatCompute, Name: "factor", Start: 0, End: 1.5, Flops: 300})
	rec.Span(obs.Span{Track: "h0", Cat: obs.CatWait, Name: "recv", Start: 1.5, End: 2})
	rec.Span(obs.Span{Track: "h1", Cat: obs.CatSend, Name: "send", Start: 0.25, End: 0.5, Bytes: 64})
	rec.Span(obs.Span{Track: "net", Cat: obs.CatNet, Name: "msg", Start: 0.5, End: 1.25, Bytes: 64, Link: "lanA+wan", Queue: 0.125})
	rec.Span(obs.Span{Track: "solver:h1", Cat: obs.CatRetry, Name: "retry", Start: 1, End: 1.25})
	rec.Sample("residual", "h0", 0.5, 1)
	rec.Sample("residual", "h0", 1.5, 0.25)
	wm := obs.ComputeWindows(rec, 1, 2, nil)

	const wantCSV = `table,key,w,field,value
run,,,width,1
run,,,makespan,2
run,,,windows,2
hostw,h0,0,compute,1
hostw,h0,0,send,0
hostw,h0,0,wait,0
hostw,h0,0,sleep,0
hostw,h0,0,flops,200
hostw,h0,0,utilization,1
hostw,h0,0,wait_share,0
hostw,h0,1,compute,0.5
hostw,h0,1,send,0
hostw,h0,1,wait,0.5
hostw,h0,1,sleep,0
hostw,h0,1,flops,100
hostw,h0,1,utilization,0.5
hostw,h0,1,wait_share,0.5
hostw,h1,0,compute,0
hostw,h1,0,send,0.25
hostw,h1,0,wait,0
hostw,h1,0,sleep,0
hostw,h1,0,flops,0
hostw,h1,0,utilization,0.25
hostw,h1,0,wait_share,0
hostw,h1,1,compute,0
hostw,h1,1,send,0
hostw,h1,1,wait,0
hostw,h1,1,sleep,0
hostw,h1,1,flops,0
hostw,h1,1,retries,0.25
hostw,h1,1,utilization,0
hostw,h1,1,wait_share,0
linkw,lanA,0,bytes,64
linkw,lanA,0,msgs,1
linkw,lanA,0,queue_delay,0.125
linkw,lanA,0,age_sum,0.75
linkw,lanA,0,age_max,0.75
linkw,wan,0,bytes,64
linkw,wan,0,msgs,1
linkw,wan,0,queue_delay,0.125
linkw,wan,0,age_sum,0.75
linkw,wan,0,age_max,0.75
seriesw,residual:h0,0,count,1
seriesw,residual:h0,0,first,1
seriesw,residual:h0,0,last,1
seriesw,residual:h0,0,min,1
seriesw,residual:h0,0,max,1
seriesw,residual:h0,1,count,1
seriesw,residual:h0,1,first,0.25
seriesw,residual:h0,1,last,0.25
seriesw,residual:h0,1,min,0.25
seriesw,residual:h0,1,max,0.25
`
	var bc bytes.Buffer
	if err := wm.WriteCSV(&bc); err != nil {
		t.Fatal(err)
	}
	if got := bc.String(); got != wantCSV {
		t.Fatalf("windowed CSV mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, wantCSV)
	}
	if wm.Windows != 2 || wm.Width != 1 || wm.Makespan != 2 {
		t.Fatalf("header fields: %+v", wm)
	}
	// The h1 utilization row of window 0: 0.25s send over a 1s window.
	found := false
	for _, h := range wm.Hosts {
		if h.Track == "h1" && h.W == 0 {
			found = true
			if h.Utilization != 0.25 {
				t.Fatalf("h1/w0 utilization %g, want 0.25", h.Utilization)
			}
		}
	}
	if !found {
		t.Fatal("missing h1/w0 row")
	}
	var bj bytes.Buffer
	if err := wm.WriteJSON(&bj); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		`"width": 1`, `"makespan": 2`, `"windows": 2`,
		`"track": "h0"`, `"link": "wan"`, `"series": "residual"`,
		`"retries": 0.25`,
	} {
		if !bytes.Contains(bj.Bytes(), []byte(frag)) {
			t.Fatalf("windowed JSON missing %s:\n%s", frag, bj.String())
		}
	}
}

// TestWindowAccumWidthValidation: a non-positive width must panic loudly
// instead of windowing everything into w0.
func TestWindowAccumWidthValidation(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %v: no panic", w)
				}
			}()
			obs.NewWindowAccum(w)
		}()
	}
}

// TestWindowedPartialLastWindow: utilization in the final partial window is
// normalized by the covered width, not the full width — a host busy to the
// end shows 1.0, not width/covered.
func TestWindowedPartialLastWindow(t *testing.T) {
	rec := &obs.Recorder{}
	rec.Span(obs.Span{Track: "h0", Cat: obs.CatCompute, Name: "c", Start: 0, End: 1.25})
	wm := obs.ComputeWindows(rec, 1, 1.25, nil)
	if wm.Windows != 2 {
		t.Fatalf("windows = %d, want 2", wm.Windows)
	}
	for _, h := range wm.Hosts {
		if h.Utilization < 0.999999 || h.Utilization > 1.000001 {
			t.Fatalf("w%d utilization %g, want 1", h.W, h.Utilization)
		}
	}
}

func ExampleWindowedMetrics_Fprint() {
	rec := &obs.Recorder{}
	rec.Span(obs.Span{Track: "h0", Cat: obs.CatCompute, Name: "c", Start: 0, End: 2})
	wm := obs.ComputeWindows(rec, 1, 2, nil)
	var b bytes.Buffer
	wm.Fprint(&b, 4)
	fmt.Print(b.String())
	// Output:
	// windowed telemetry: width 1s, 2 windows, makespan 2.000000s
	//   w0   [0, 1) util 1.000 wait 0.000 bytes 0 msgs 0
	//   w1   [1, 2) util 1.000 wait 0.000 bytes 0 msgs 0
}
