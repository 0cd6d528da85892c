package obs

import (
	"bytes"
	"io"
	"sort"
	"testing"
)

// The streamer formats its spans on an encoder goroutine fed in batches of
// streamBatch. Its oracle is the sequential writer it replaced: every span
// sorted into the flush order (End, Start, Track, per-track emission order),
// encoded and folded on one goroutine, tids in first-use order, then the
// samples as counters.

// pipelineTracks are the tracks pipelineSpans cycles through: host tracks,
// the network group and a solver overlay.
var pipelineTracks = []string{"h0", "h1", "h2", "net", "solver:0"}

// pipelineSpans returns n spans in emission order over pipelineTracks, with
// non-integral times (so the number memo is exercised) and every argument
// kind on the network spans. Span i starts at 0.37*(i/5) and lasts at least
// 0.1, so Advance(Start) after emitting it never passes an unemitted span.
func pipelineSpans(n int) []Span {
	spans := make([]Span, n)
	for i := range spans {
		tr := pipelineTracks[i%len(pipelineTracks)]
		t0 := 0.37 * float64(i/len(pipelineTracks))
		s := Span{Track: tr, Start: t0, End: t0 + 0.1 + 0.01*float64(i%3)}
		switch tr {
		case "net":
			s.Cat, s.Name, s.Seq, s.Bytes = CatNet, "h0>h1", int64(i+1), int64(64*(i%7+1))
			s.From, s.To, s.Link, s.Tag, s.Queue = "h0", "h1", "lan", 3, 1e-7*float64(i%4)
		case "solver:0":
			s.Cat, s.Name, s.Iter = CatIter, "iter", i
		default:
			if i%2 == 0 {
				s.Cat, s.Name, s.Flops = CatCompute, "compute", 1e6+float64(i)
			} else {
				s.Cat, s.Name, s.Cause = CatWait, "wait", int64(i)
			}
		}
		spans[i] = s
	}
	return spans
}

// pipelineSamples records a few metric samples on rec.
func pipelineSamples(rec *Recorder) {
	for k := 0; k < 4; k++ {
		rec.Sample("residual", "h0", 0.5*float64(k), 1/float64(k+3))
		rec.Sample("diff", "h1", 0.25*float64(k), 0.1*float64(k))
	}
}

// sequentialStream writes spans and samples the way the single-goroutine
// streamer did: the document to w, the windows (width > 0) returned as JSON.
func sequentialStream(t *testing.T, w io.Writer, spans []Span, samples []SamplePoint, width, makespan float64) ([]byte, error) {
	t.Helper()
	ordered := append([]Span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := &ordered[i], &ordered[j]
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Track < b.Track
	})
	enc := newJSONWriter(w)
	var fold spanFold
	if width > 0 {
		fold.windows = NewWindowAccum(width)
	}
	var tids [pidMetrics + 1]map[string]int
	tid := func(pid int, name string) int {
		if tids[pid] == nil {
			tids[pid] = map[string]int{}
			enc.meta("process_name", pid, 0, pidNames[pid])
		}
		id, ok := tids[pid][name]
		if !ok {
			id = len(tids[pid])
			tids[pid][name] = id
			enc.meta("thread_name", pid, id, name)
		}
		return id
	}
	for i := range ordered {
		s := &ordered[i]
		fold.add(s)
		pid := pidOf(s.Cat)
		enc.span(s, pid, tid(pid, s.Track))
	}
	var counter counterNamer
	for i := range samples {
		if fold.windows != nil {
			fold.windows.AddSample(samples[i])
		}
		name := counter.of(&samples[i])
		enc.counter(name, tid(pidMetrics, name), samples[i].T, samples[i].V)
	}
	err := enc.finish()
	if fold.windows == nil {
		return nil, err
	}
	var wj bytes.Buffer
	if werr := fold.windows.Finish(makespan, nil).WriteJSON(&wj); werr != nil {
		t.Fatal(werr)
	}
	return wj.Bytes(), err
}

// pipelineStream feeds spans through a streamer on w, advancing the
// watermark to each span's start, and returns the windows JSON (width > 0),
// the recorder's samples and Close's error.
func pipelineStream(t *testing.T, w io.Writer, spans []Span, width, makespan float64) ([]byte, []SamplePoint, error) {
	t.Helper()
	rec := &Recorder{}
	st := NewStreamer(w, 0)
	if width > 0 {
		st.AccumulateWindows(width)
	}
	rec.SetStream(st)
	for i := range spans {
		rec.Span(spans[i])
		rec.Advance(spans[i].Start)
	}
	pipelineSamples(rec)
	err := st.Close()
	if st.Flushed() != len(spans) {
		t.Fatalf("flushed %d of %d spans", st.Flushed(), len(spans))
	}
	if width == 0 {
		return nil, rec.Samples(), err
	}
	var wj bytes.Buffer
	if werr := st.Windows(makespan).WriteJSON(&wj); werr != nil {
		t.Fatal(werr)
	}
	return wj.Bytes(), rec.Samples(), err
}

// TestStreamerBatchBoundaries: the document and the windows must be the
// sequential writer's, byte for byte, for span counts on either side of a
// batch boundary (the last partial batch is handed over by Close).
func TestStreamerBatchBoundaries(t *testing.T) {
	const makespan = 0.37*(2*streamBatch+1)/5 + 1
	for _, n := range []int{0, 1, streamBatch - 1, streamBatch, streamBatch + 1, 2*streamBatch + 1} {
		for _, width := range []float64{0, 0.5} {
			spans := pipelineSpans(n)
			var got, want bytes.Buffer
			win, samples, err := pipelineStream(t, &got, spans, width, makespan)
			if err != nil {
				t.Fatal(err)
			}
			wantWin, werr := sequentialStream(t, &want, spans, samples, width, makespan)
			if werr != nil {
				t.Fatal(werr)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%d spans, window %g: streamed document differs from the sequential one at byte %d",
					n, width, firstDiff(got.Bytes(), want.Bytes()))
			}
			if !bytes.Equal(win, wantWin) {
				t.Fatalf("%d spans, window %g: streamed windows differ from the sequential ones", n, width)
			}
		}
	}
}

// firstDiff returns the index of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// gateWriter blocks every write until gate is closed.
type gateWriter struct{ gate chan struct{} }

func (w gateWriter) Write(p []byte) (int, error) {
	<-w.gate
	return len(p), nil
}

// TestStreamerLeavesNoGoroutine: the encoder goroutine runs while batches
// are queued — here held up by a writer that blocks — and is gone after
// Close, and also after a streamer that was never closed once its queued
// batches are written. Only goroutines running this package's code count,
// so goroutines of the test binary or of an earlier test do not make it
// flaky.
func TestStreamerLeavesNoGoroutine(t *testing.T) {
	for _, closed := range []bool{true, false} {
		if n := obsGoroutines(0); n != 0 {
			t.Fatalf("closed=%v: %d goroutines of the package before the streamer starts", closed, n)
		}
		w := gateWriter{gate: make(chan struct{})}
		rec := &Recorder{}
		st := NewStreamer(w, 0)
		rec.SetStream(st)
		spans := pipelineSpans(streamBatches * streamBatch)
		for i := range spans {
			rec.Span(spans[i])
			rec.Advance(spans[i].Start)
		}
		if n := obsGoroutines(1); n != 1 {
			t.Fatalf("closed=%v: %d goroutines of the package while the writer blocks, want 1 (the encoder)", closed, n)
		}
		close(w.gate)
		if closed {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if n := obsGoroutines(0); n != 0 {
			t.Fatalf("closed=%v: %d goroutines of the package left, want 0", closed, n)
		}
	}
}
