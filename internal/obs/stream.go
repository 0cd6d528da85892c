// Bounded-memory streaming trace export. A Streamer sits behind the recorder
// as a flight-recorder ring: spans are held in a small pending heap and
// flushed incrementally to the Chrome trace-event writer as the engine's
// commit-time watermark passes them, so a 10⁴-host run never holds its full
// span population in RAM.
//
// The determinism argument mirrors the batch exporter's, with the watermark
// replacing the end-of-run sort. Two invariants make the streamed bytes
// identical for any worker or lane count:
//
//   - Every span's End is at or past the commit time of the slice that emits
//     it (spans describe work the scheduler has just committed, never work
//     that could still be reordered), and the engine's commit keys are
//     non-decreasing. So when the engine advances the watermark to commit
//     time t, every span with End < t has already been emitted — the flush
//     set {End < t} is complete, and concatenating the per-watermark flushes
//     yields all spans in (End, Start, Track, per-track seq) order no matter
//     which watermark subsequence a particular lane count produced.
//   - Ties are broken by a per-track emission sequence instead of the
//     recorder's global emission order: the per-track order is the process's
//     own program order, which is worker- and lane-count invariant, while the
//     global interleaving is not.
//
// The one escape hatch is ring overflow: if the pending heap outgrows the
// configured ring, the oldest spans are force-flushed early to keep memory
// bounded. Those early flushes can precede the watermark, so byte-stability
// across worker counts is only guaranteed while the ring is large enough to
// hold the peak live span population (OverflowFlushes reports violations;
// the default ring is ample for every shipped workload).
package obs

import "io"

// DefaultStreamRing is the default flight-recorder capacity: the maximum
// number of spans held in memory awaiting their watermark.
const DefaultStreamRing = 1 << 16

// streamKey is one pending span's entry in the flush heap: the deterministic
// flush key (End, Start, Track, per-track seq) plus the slab slot holding
// the span. The heap sifts these 32-byte keys, never the spans themselves.
type streamKey struct {
	end, start float64
	seq        int64
	track      int32 // interned track id; ordered by name, see less
	slot       int32
}

// Streamer is the incremental trace-event writer behind a streaming
// recorder: a pending-span ring plus the encoder state of one Chrome
// trace-event JSON document. Create it with NewStreamer, attach it with
// Recorder.SetStream before the run, and Close it after the run to flush the
// tail, append the metric counter events and terminate the document. Events
// go through the same encoder as the batch exporter's and reach the writer
// in buffered chunks, so nothing is complete on the writer until Close. A
// Streamer is fed only from the recorder's serialized emission points; it is
// not goroutine-safe.
type Streamer struct {
	enc  traceEncoder
	ring int
	rec  *Recorder

	// heap is a min-heap of the pending spans' keys; the spans sit in slab,
	// whose vacated slots are recycled through free, so a steady-state run
	// allocates nothing per span.
	heap []streamKey
	slab []Span
	free []int32

	// Track names are interned on arrival: ids index names (the id's
	// string, for ordering and thread_name events), seqs (the per-track
	// emission sequence the flush order ties on) and, per process group,
	// tids (the track's tid plus one; zero until its metadata is written).
	ids   map[string]int32
	names []string
	seqs  []int64
	tids  [pidMetrics + 1][]int32
	ntids [pidMetrics + 1]int32

	peak     int
	flushed  int
	overflow int
	closed   bool

	// fold receives every flushed span: the windows AccumulateWindows asked
	// for, and the host budgets of an Export that writes aggregate metrics.
	fold spanFold
}

// NewStreamer returns a streamer writing one Chrome trace-event JSON
// document to w, holding at most ring pending spans (DefaultStreamRing when
// ring <= 0).
func NewStreamer(w io.Writer, ring int) *Streamer {
	if ring <= 0 {
		ring = DefaultStreamRing
	}
	return &Streamer{enc: newTraceEncoder(w), ring: ring, ids: map[string]int32{}}
}

// AccumulateWindows additionally folds every flushed span (and, at Close,
// every sample) into a windowed-metrics accumulator of the given width, so
// rolling metrics survive streaming even though the spans are not retained.
// Must be called before the run; retrieve the result with Windows after
// Close.
func (st *Streamer) AccumulateWindows(width float64) {
	st.fold.windows = NewWindowAccum(width)
}

// Windows finishes and returns the windowed metrics accumulated during
// streaming (nil unless AccumulateWindows was called). Call after Close.
func (st *Streamer) Windows(makespan float64) *WindowedMetrics {
	if st.fold.windows == nil {
		return nil
	}
	return st.fold.windows.Finish(makespan, nil)
}

// PeakPending reports the largest number of spans the ring ever held — the
// streaming mode's span-memory high-water mark, bounded by the ring size.
func (st *Streamer) PeakPending() int { return st.peak }

// Flushed reports how many spans have been written out.
func (st *Streamer) Flushed() int { return st.flushed }

// OverflowFlushes reports how many spans were force-flushed ahead of their
// watermark because the ring was full. A non-zero value means the ring is
// smaller than the peak live span population and the stream's byte-identity
// guarantee across worker counts no longer holds (the trace itself is still
// valid).
func (st *Streamer) OverflowFlushes() int { return st.overflow }

// intern returns the id of a track name, assigning the next one on first
// sight.
func (st *Streamer) intern(name string) int32 {
	id, ok := st.ids[name]
	if !ok {
		id = int32(len(st.names))
		st.ids[name] = id
		st.names = append(st.names, name)
		st.seqs = append(st.seqs, 0)
	}
	return id
}

// less orders two pending spans by the flush key. Track ids are handed out
// in arrival order, which depends on the lane count, so distinct tracks
// compare by name.
func (st *Streamer) less(a, b *streamKey) bool {
	if a.end != b.end {
		return a.end < b.end
	}
	if a.start != b.start {
		return a.start < b.start
	}
	if a.track != b.track {
		return st.names[a.track] < st.names[b.track]
	}
	return a.seq < b.seq
}

// push copies a span into the slab and its key into the heap, then enforces
// the ring bound by force-flushing the smallest-keyed pending spans. The
// engine calls this via Recorder.Span. The sift is hand-rolled: the per-span
// hot path runs once per committed event, and container/heap would box every
// key into an interface on the way in and out.
func (st *Streamer) push(s *Span) {
	var slot int32
	if n := len(st.free); n > 0 {
		slot = st.free[n-1]
		st.free = st.free[:n-1]
		st.slab[slot] = *s
	} else {
		slot = int32(len(st.slab))
		st.slab = append(st.slab, *s)
	}
	track := st.intern(s.Track)
	k := streamKey{end: s.End, start: s.Start, seq: st.seqs[track], track: track, slot: slot}
	st.seqs[track]++
	h := append(st.heap, k)
	st.heap = h
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !st.less(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	for len(st.heap) > st.ring {
		st.overflow++
		st.pop()
	}
	if len(st.heap) > st.peak {
		st.peak = len(st.heap)
	}
}

// pop removes the minimum-keyed pending span, writes it out and recycles
// its slab slot.
func (st *Streamer) pop() {
	h := st.heap
	n := len(h) - 1
	k := h[0]
	h[0] = h[n]
	h = h[:n]
	st.heap = h
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && st.less(&h[r], &h[c]) {
			c = r
		}
		if !st.less(&h[c], &h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	st.emit(&st.slab[k.slot], k.track)
	st.free = append(st.free, k.slot)
}

// advance flushes every pending span that ended strictly before the
// watermark t. The engine calls this via Recorder.Advance at its serialized
// commit points, with non-decreasing t.
func (st *Streamer) advance(t float64) {
	for len(st.heap) > 0 && st.heap[0].end < t {
		st.pop()
	}
}

// tid returns the tid of an interned track inside a process group, emitting
// process_name and thread_name metadata events on first use. Unlike the
// batch exporter, tids follow first-flush order rather than sorted order —
// the flush order is itself deterministic, so the document still is.
func (st *Streamer) tid(pid int, track int32) int {
	tids := st.tids[pid]
	if int(track) >= len(tids) {
		tids = append(tids, make([]int32, len(st.names)-len(tids))...)
		st.tids[pid] = tids
	}
	if tids[track] == 0 {
		if st.ntids[pid] == 0 {
			st.enc.meta("process_name", pid, 0, pidNames[pid])
		}
		st.enc.meta("thread_name", pid, int(st.ntids[pid]), st.names[track])
		st.ntids[pid]++
		tids[track] = st.ntids[pid]
	}
	return int(tids[track] - 1)
}

// emit writes one span out and folds it into the metrics accumulators.
func (st *Streamer) emit(s *Span, track int32) {
	st.flushed++
	st.fold.add(s)
	pid := pidOf(s.Cat)
	st.enc.span(s, pid, st.tid(pid, track))
}

// Close flushes every remaining pending span, appends the recorder's metric
// samples as counter events, terminates the JSON document, drains the
// encoder's buffer to the writer and returns the first failure: a write
// error, after which no further write was attempted, or a span or sample
// holding a NaN or an infinity, which cuts the document short at that event.
// The streamer must not be fed after Close.
func (st *Streamer) Close() error {
	if st.closed {
		return st.enc.err
	}
	st.closed = true
	for len(st.heap) > 0 {
		st.pop()
	}
	if st.rec != nil {
		var counter counterNamer
		samples := st.rec.Samples()
		for i := range samples {
			if st.fold.windows != nil {
				st.fold.windows.AddSample(samples[i])
			}
			name := counter.of(&samples[i])
			st.enc.counter(name, st.tid(pidMetrics, st.intern(name)), samples[i].T, samples[i].V)
		}
	}
	return st.enc.finish()
}
