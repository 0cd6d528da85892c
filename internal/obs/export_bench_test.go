package obs

import (
	"fmt"
	"io"
	"testing"
)

// benchRing is a message ring over a fixed set of tracks, with the names
// its spans carry built once.
type benchRing struct {
	names, links, transfers []string
}

func newBenchRing(hosts int) *benchRing {
	g := &benchRing{names: make([]string, hosts), links: make([]string, hosts), transfers: make([]string, hosts)}
	for i := range g.names {
		g.names[i] = fmt.Sprintf("ring%d", i)
		g.links[i] = fmt.Sprintf("nic-g%d+up-c%d+nic-g%d", i, i/10, (i+1)%hosts)
	}
	for i, name := range g.names {
		g.transfers[i] = name + ">" + g.names[(i+1)%hosts]
	}
	return g
}

// record feeds rec the spans of the ring run for rounds rounds, in the shape
// of a simulated grid ring: every round each host computes, sends to the
// next host (a send span on its track, a transfer on "net") and waits for
// the previous host's message. The compute lengths are spread so the hosts
// drift apart. Spans are emitted round by round, with the round's earliest
// start as the commit watermark, which is what a streaming recorder needs.
// It returns the makespan.
func (g *benchRing) record(rec *Recorder, rounds int) float64 {
	names, hosts := g.names, len(g.names)
	const push, latency = 256 / 1.25e7, 25e-6
	clock := make([]float64, hosts)
	arrival := make([]float64, hosts)
	var seq int64
	for r := 0; r < rounds; r++ {
		low := clock[0]
		for _, c := range clock {
			low = min(low, c)
		}
		rec.Advance(low)
		for i, name := range names {
			flops := 1e5 * float64(1+(i*31+r*17)%97)
			end := clock[i] + flops/150e6
			rec.Span(Span{Track: name, Cat: CatCompute, Name: "compute", Start: clock[i], End: end, Flops: flops})
			next := names[(i+1)%hosts]
			seq++
			rec.Span(Span{Track: name, Cat: CatSend, Name: "send", Start: end, End: end + push, Bytes: 256, To: next, Tag: r})
			arrival[i] = end + push + latency
			rec.Span(Span{Track: "net", Cat: CatNet, Name: g.transfers[i], Start: end, End: arrival[i],
				Bytes: 256, From: name, To: next, Link: g.links[i], Tag: r, Seq: seq})
			clock[i] = end + push
		}
		for i, name := range names {
			prev := (i + hosts - 1) % hosts
			until := max(clock[i], arrival[prev])
			rec.Span(Span{Track: name, Cat: CatWait, Name: "wait", Start: clock[i], End: until,
				From: names[prev], Tag: r, Cause: int64(prev + 1)})
			clock[i] = until
		}
	}
	makespan := 0.0
	for _, c := range clock {
		makespan = max(makespan, c)
	}
	return makespan
}

// BenchmarkObsExport prices the recorder's exports on a ring recording of
// 1000 tracks and 44 000 spans, the shape of a traced 1000-host grid run:
//
//   - batch: the trace-event document and windows.json of a recording
//     already made (its export order is built once, before the timer);
//   - stream: recording through a streaming recorder, which writes the
//     trace as the spans become final, then windows.json.
//
// Both report the time per span beside the bytes per document pair:
//
//	go test -run '^$' -bench BenchmarkObsExport -benchmem ./internal/obs
func BenchmarkObsExport(b *testing.B) {
	const rounds, width = 11, 0.05
	g := newBenchRing(1000)
	b.Run("batch", func(b *testing.B) {
		rec := &Recorder{}
		makespan := g.record(rec, rounds)
		rec.exportOrder()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := WriteTraceJSON(io.Discard, rec); err != nil {
				b.Fatal(err)
			}
			if err := ComputeWindows(rec, width, makespan, nil).WriteJSON(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rec.NumSpans()), "ns/span")
	})
	b.Run("stream", func(b *testing.B) {
		spans := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := &Recorder{}
			st := NewStreamer(io.Discard, 0)
			st.AccumulateWindows(width)
			rec.SetStream(st)
			makespan := g.record(rec, rounds)
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			if err := st.Windows(makespan).WriteJSON(io.Discard); err != nil {
				b.Fatal(err)
			}
			spans = rec.NumSpans()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spans), "ns/span")
	})
}
