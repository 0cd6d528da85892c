package obs_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

// streamedSolve runs the shared multi-cluster workload in streaming trace
// mode and returns the streamed trace bytes, the windowed JSON accumulated
// from the flush path, and the streamer for stat assertions.
func streamedSolve(t *testing.T, workers, lanes, ring int) (trace []byte, wj []byte, st *obs.Streamer, rec *obs.Recorder) {
	t.Helper()
	var buf bytes.Buffer
	rec, end := solveObserved(t, workers, lanes, func(r *obs.Recorder) {
		st = obs.NewStreamer(&buf, ring)
		st.AccumulateWindows(testWindowWidth)
		r.SetStream(st)
	})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wm := st.Windows(end)
	if wm == nil {
		t.Fatal("no windows from an accumulating streamer")
	}
	var bj bytes.Buffer
	if err := wm.WriteJSON(&bj); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), bj.Bytes(), st, rec
}

// TestStreamedTraceByteIdentical: the streamed trace and the windows
// accumulated from its flush path must be byte-identical for any worker
// count and any lane count — the watermark flush rule (emit exactly the
// spans with End < t, in (End, Start, Track, seq) order) makes the output
// independent of where the watermarks fall.
func TestStreamedTraceByteIdentical(t *testing.T) {
	refTrace, refWin, refSt, refRec := streamedSolve(t, 1, 1, 0)
	if refSt.Flushed() == 0 {
		t.Fatal("no spans streamed")
	}
	if refSt.Flushed() != refRec.NumSpans() {
		t.Fatalf("flushed %d spans, recorder counted %d", refSt.Flushed(), refRec.NumSpans())
	}
	if refSt.OverflowFlushes() != 0 {
		t.Fatalf("default ring overflowed (%d force flushes)", refSt.OverflowFlushes())
	}
	if !json.Valid(refTrace) {
		t.Fatal("streamed trace is not valid JSON")
	}
	for _, tc := range []struct {
		name           string
		workers, lanes int
	}{
		{"workers=4/lanes=1", 4, 1},
		{"workers=1/lanes=auto", 1, 0},
		{"workers=4/lanes=auto", 4, 0},
	} {
		trace, win, _, _ := streamedSolve(t, tc.workers, tc.lanes, 0)
		if !bytes.Equal(refTrace, trace) {
			t.Fatalf("%s: streamed trace differs from 1 worker / 1 lane", tc.name)
		}
		if !bytes.Equal(refWin, win) {
			t.Fatalf("%s: streamed windows differ from 1 worker / 1 lane", tc.name)
		}
	}
}

// TestStreamRingBound: with a ring far smaller than the span population the
// flight recorder force-flushes instead of growing — peak occupancy stays
// at or under the ring size, the overflow counter records the earliness,
// and the output is still a complete valid trace.
func TestStreamRingBound(t *testing.T) {
	const ring = 4
	trace, _, st, rec := streamedSolve(t, 1, 1, ring)
	if st.PeakPending() > ring {
		t.Fatalf("peak pending %d exceeds ring %d", st.PeakPending(), ring)
	}
	if st.OverflowFlushes() == 0 {
		t.Fatalf("tiny ring never overflowed (%d spans)", rec.NumSpans())
	}
	if st.Flushed() != rec.NumSpans() {
		t.Fatalf("flushed %d of %d spans", st.Flushed(), rec.NumSpans())
	}
	if !json.Valid(trace) {
		t.Fatal("force-flushed trace is not valid JSON")
	}
}

// TestStreamedWindowsMatchBatch: the windows accumulated at flush time must
// agree with the batch ComputeWindows on the retained spans. Host rows are
// exact (per-track tiling gives both feeds the same accumulation order);
// link rows may differ in the last ulp (different summation order), so they
// compare with a relative tolerance.
func TestStreamedWindowsMatchBatch(t *testing.T) {
	_, wj, _, _ := streamedSolve(t, 1, 1, 0)
	streamed := &obs.WindowedMetrics{}
	if err := json.Unmarshal(wj, streamed); err != nil {
		t.Fatal(err)
	}
	rec, end := solveObserved(t, 1, 1, nil)
	batch := obs.ComputeWindows(rec, testWindowWidth, end, nil)

	if streamed.Windows != batch.Windows || streamed.Makespan != batch.Makespan {
		t.Fatalf("header mismatch: stream %d/%g vs batch %d/%g",
			streamed.Windows, streamed.Makespan, batch.Windows, batch.Makespan)
	}
	if len(streamed.Hosts) != len(batch.Hosts) {
		t.Fatalf("host rows: %d vs %d", len(streamed.Hosts), len(batch.Hosts))
	}
	approx := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)) }
	for i := range batch.Hosts {
		s, b := streamed.Hosts[i], batch.Hosts[i]
		if s.Track != b.Track || s.W != b.W {
			t.Fatalf("host row %d keys: %s/%d vs %s/%d", i, s.Track, s.W, b.Track, b.W)
		}
		if !approx(s.Compute, b.Compute) || !approx(s.Wait, b.Wait) || !approx(s.Utilization, b.Utilization) {
			t.Fatalf("host row %s/w%d differs: %+v vs %+v", s.Track, s.W, s, b)
		}
	}
	if len(streamed.Links) != len(batch.Links) {
		t.Fatalf("link rows: %d vs %d", len(streamed.Links), len(batch.Links))
	}
	for i := range batch.Links {
		s, b := streamed.Links[i], batch.Links[i]
		if s.Link != b.Link || s.W != b.W {
			t.Fatalf("link row %d keys: %s/%d vs %s/%d", i, s.Link, s.W, b.Link, b.W)
		}
		if s.Bytes != b.Bytes || s.Msgs != b.Msgs {
			t.Fatalf("link row %s/w%d counts differ: %+v vs %+v", s.Link, s.W, s, b)
		}
		if !approx(s.QueueDelay, b.QueueDelay) || !approx(s.AgeSum, b.AgeSum) || !approx(s.AgeMax, b.AgeMax) {
			t.Fatalf("link row %s/w%d times differ: %+v vs %+v", s.Link, s.W, s, b)
		}
	}
	if len(streamed.Series) != len(batch.Series) {
		t.Fatalf("series rows: %d vs %d", len(streamed.Series), len(batch.Series))
	}
	for i := range batch.Series {
		if streamed.Series[i] != batch.Series[i] {
			t.Fatalf("series row %d differs: %+v vs %+v", i, streamed.Series[i], batch.Series[i])
		}
	}
}

// TestStreamerGuards: SetStream after recording has started must panic (the
// stream would silently miss the spans already retained), as must
// SetStream on a journal recorder and a span fed to a closed streamer.
func TestStreamerGuards(t *testing.T) {
	rec := &obs.Recorder{}
	rec.Span(obs.Span{Track: "h0", Cat: obs.CatCompute, Name: "c", Start: 0, End: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetStream after a recorded span: no panic")
			}
		}()
		rec.SetStream(obs.NewStreamer(&bytes.Buffer{}, 0))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetStream on a journal recorder: no panic")
			}
		}()
		obs.NewJournal().SetStream(obs.NewStreamer(&bytes.Buffer{}, 0))
	}()
	func() {
		rec := &obs.Recorder{}
		st := obs.NewStreamer(&bytes.Buffer{}, 0)
		rec.SetStream(st)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "closed Streamer") {
				t.Errorf("span fed after Close: panic %q, want one naming the closed Streamer", msg)
			}
		}()
		rec.Span(obs.Span{Track: "h0", Cat: obs.CatCompute, Name: "c", Start: 0, End: 1})
	}()
}
