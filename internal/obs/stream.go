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
//
// Who owns what. The producer side runs on the engine's serialized commit
// points and decides what is flushed and when: the pending heap and slab, the
// watermark and overflow flushes, track interning and the flush counters. A
// flushed span is copied, with its interned track id, into a batch of
// streamBatch entries; a full batch goes over a channel to one encoder
// goroutine, which owns everything downstream of a flush (streamOut: the
// trace encoder with its buffer, number memo and latched error, the tids and
// their metadata events, and the span fold behind the windows and the host
// budgets). The encoder sees the spans in exactly the flush order, so the
// document is the one a sequential encoder would write, byte for byte, while
// its formatting overlaps the simulation. The encoder runs only while
// batches are queued and exits when the queue is empty: no goroutine outlives
// Close, and a streamer dropped without Close leaves none behind once its
// queued batches are written. Close hands over the last partial batch, waits
// for the encoder, and finishes the document on the calling goroutine.
package obs

import (
	"io"
	"sync"
	"sync/atomic"
)

// DefaultStreamRing is the default flight-recorder capacity: the maximum
// number of spans held in memory awaiting their watermark.
const DefaultStreamRing = 1 << 16

// streamBatch is the number of flushed spans handed to the encoder at once,
// and streamBatches the number of batches a streamer allocates: the producer
// reuses the ones the encoder has written, and waits for one when all are
// queued, so memory does not grow with the run.
const (
	streamBatch   = 256
	streamBatches = 3
)

// streamedSpan is one flushed span on its way to the encoder, with the
// interned id of its track.
type streamedSpan struct {
	s     Span
	track int32
}

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
// recorder: a pending-span ring in front of one Chrome trace-event JSON
// document. Create it with NewStreamer, attach it with Recorder.SetStream
// before the run, and Close it after the run to flush the tail, append the
// metric counter events and terminate the document. Events go through the
// same encoder as the batch exporter's, on the streamer's encoder goroutine,
// and reach the writer in buffered chunks, so nothing is complete on the
// writer until Close. A Streamer is fed only from the recorder's serialized
// emission points; it is not goroutine-safe.
type Streamer struct {
	ring int
	rec  *Recorder

	// heap is a min-heap of the pending spans' keys; the spans sit in slab,
	// whose vacated slots are recycled through free, so a steady-state run
	// allocates nothing per span.
	heap []streamKey
	slab []Span
	free []int32

	// Track names are interned on arrival: ids index names (the id's
	// string, for ordering) and seqs (the per-track emission sequence the
	// flush order ties on).
	ids   map[string]int32
	names []string
	seqs  []int64

	peak     int
	flushed  int
	overflow int
	closed   bool

	// cur is the batch being filled (nil until the next flush). Full
	// batches go to the encoder over work and come back, written, over
	// spare; queued counts the batches handed over and not yet written, and
	// done waits for the encoder goroutine.
	cur    []streamedSpan
	work   chan []streamedSpan
	spare  chan []streamedSpan
	queued atomic.Int32
	done   sync.WaitGroup

	// out is the encoder's state: touched only by the encoder goroutine
	// between NewStreamer and Close, and by Close's caller afterwards.
	out *streamOut
}

// streamOut is everything downstream of a flush: the document's encoder,
// the tids of the tracks written so far and the fold of the flushed spans.
type streamOut struct {
	enc jsonWriter
	// tids holds, per process group and track id, the track's tid plus one
	// (zero until its metadata is written).
	tids  [pidMetrics + 1][]int32
	ntids [pidMetrics + 1]int32
	// fold receives every flushed span: the windows AccumulateWindows asked
	// for, and the host budgets of an Export that writes aggregate metrics.
	fold spanFold
}

// NewStreamer returns a streamer writing one Chrome trace-event JSON
// document to w, holding at most ring pending spans (DefaultStreamRing when
// ring <= 0). w is written from the streamer's encoder goroutine: it must
// not be touched until Close returns.
func NewStreamer(w io.Writer, ring int) *Streamer {
	if ring <= 0 {
		ring = DefaultStreamRing
	}
	st := &Streamer{
		ring:  ring,
		ids:   map[string]int32{},
		work:  make(chan []streamedSpan, streamBatches),
		spare: make(chan []streamedSpan, streamBatches),
		out:   &streamOut{enc: newJSONWriter(w)},
	}
	for range streamBatches {
		st.spare <- make([]streamedSpan, 0, streamBatch)
	}
	return st
}

// AccumulateWindows additionally folds every flushed span (and, at Close,
// every sample) into a windowed-metrics accumulator of the given width, so
// rolling metrics survive streaming even though the spans are not retained.
// Must be called before the run; retrieve the result with Windows after
// Close.
func (st *Streamer) AccumulateWindows(width float64) {
	st.out.fold.windows = NewWindowAccum(width)
}

// Windows finishes and returns the windowed metrics accumulated during
// streaming (nil unless AccumulateWindows was called). Call after Close.
func (st *Streamer) Windows(makespan float64) *WindowedMetrics {
	if st.out.fold.windows == nil {
		return nil
	}
	return st.out.fold.windows.Finish(makespan, nil)
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
	if st.closed {
		panic("obs: span fed to a closed Streamer")
	}
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

// emit copies one flushed span into the current batch and hands the batch
// to the encoder once it is full.
func (st *Streamer) emit(s *Span, track int32) {
	st.flushed++
	if st.cur == nil {
		st.cur = <-st.spare
	}
	st.cur = append(st.cur, streamedSpan{*s, track})
	if len(st.cur) == streamBatch {
		st.handOff()
	}
}

// handOff queues the current batch for the encoder, starting the encoder
// goroutine when none is running.
func (st *Streamer) handOff() {
	st.work <- st.cur
	st.cur = nil
	if st.queued.Add(1) == 1 {
		st.done.Add(1)
		go st.encode()
	}
}

// encode writes queued batches in order and returns the written ones for
// reuse. It exits once the queue is empty: the batch count drops to zero
// only after the last queued batch is written, and the next handOff sees
// the zero and starts a fresh encoder, so one encoder runs at a time.
func (st *Streamer) encode() {
	defer st.done.Done()
	for {
		b := <-st.work
		for i := range b {
			st.out.span(&b[i])
		}
		st.spare <- b[:0]
		if st.queued.Add(-1) == 0 {
			return
		}
	}
}

// span writes one flushed span out and folds it into the metrics
// accumulators.
func (o *streamOut) span(e *streamedSpan) {
	o.fold.add(&e.s)
	pid := pidOf(e.s.Cat)
	o.enc.span(&e.s, pid, o.tid(pid, e.track, e.s.Track))
}

// tid returns the tid of an interned track inside a process group, emitting
// process_name and thread_name metadata events on first use; name is the
// track's name. Unlike the batch exporter, tids follow first-flush order
// rather than sorted order — the flush order is itself deterministic, so
// the document still is.
func (o *streamOut) tid(pid int, track int32, name string) int {
	tids := o.tids[pid]
	if int(track) >= len(tids) {
		tids = append(tids, make([]int32, int(track)+1-len(tids))...)
		o.tids[pid] = tids
	}
	if tids[track] == 0 {
		if o.ntids[pid] == 0 {
			o.enc.meta("process_name", pid, 0, pidNames[pid])
		}
		o.enc.meta("thread_name", pid, int(o.ntids[pid]), name)
		o.ntids[pid]++
		tids[track] = o.ntids[pid]
	}
	return int(tids[track] - 1)
}

// Close flushes every remaining pending span, waits for the encoder to
// write them, appends the recorder's metric samples as counter events,
// terminates the JSON document, drains the encoder's buffer to the writer
// and returns the first failure: a write error, after which no further
// write was attempted, or a span or sample holding a NaN or an infinity,
// which cuts the document short at that event. Feeding the streamer a span
// after Close panics.
func (st *Streamer) Close() error {
	o := st.out
	if st.closed {
		return o.enc.err
	}
	st.closed = true
	for len(st.heap) > 0 {
		st.pop()
	}
	if len(st.cur) > 0 {
		st.handOff()
	}
	st.done.Wait()
	if st.rec != nil {
		var counter counterNamer
		samples := st.rec.Samples()
		for i := range samples {
			if o.fold.windows != nil {
				o.fold.windows.AddSample(samples[i])
			}
			name := counter.of(&samples[i])
			o.enc.counter(name, o.tid(pidMetrics, st.intern(name), name), samples[i].T, samples[i].V)
		}
	}
	return o.enc.finish()
}
