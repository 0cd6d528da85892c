// Package obs is the virtual-time observability layer of the simulated grid:
// a span/metric recorder fed from the simulator's scheduler commit points and
// from the solver drivers, with exporters for Chrome trace-event JSON
// (Perfetto / chrome://tracing), utilization and convergence metrics
// (JSON/CSV) and a critical-path profiler that decomposes the end-to-end
// makespan into compute, network and wait time.
//
// Everything is measured on the virtual clock, never the wall clock, so the
// recorded data inherits the simulator's determinism contract: a run with
// observability enabled produces byte-identical exports for any worker-thread
// count. Two rules make that hold:
//
//   - Emission points are serialized. Spans and samples are only emitted
//     while the emitting goroutine is the unique runner (a process between
//     resume and yield, or the scheduler between picks), so the per-track
//     emission order is the process's own program order.
//   - Exports sort. The one cross-track ordering that may differ between
//     worker counts — when a deferred compute segment's charge is collected —
//     is erased by sorting every export on (Start, Track, per-track index), a
//     total order independent of the global emission interleaving.
//
// With no recorder attached the instrumented code paths cost one nil check.
package obs

import (
	"cmp"
	"slices"
	"sort"
	"strings"
)

// Span categories. Host-level categories (compute, send, wait, sleep, mark)
// tile each process's track without overlap; net spans live on the shared
// network track and may overlap (they are exported as async events); solver
// categories (fact, refact, iter, phase, retry, detect) live on per-rank
// "solver:" tracks overlaying the host timeline.
const (
	// CatCompute is a charged compute segment on a process track.
	CatCompute = "compute"
	// CatSend is the sender-side occupancy of a message (queueing + push).
	CatSend = "send"
	// CatNet is a message transfer in flight (wire start to arrival).
	CatNet = "net"
	// CatWait is a blocked receive (block instant to resume instant).
	CatWait = "wait"
	// CatSleep is a virtual-time sleep (includes retry backoff).
	CatSleep = "sleep"
	// CatMark is an instantaneous platform event (host crash/restart).
	CatMark = "mark"
	// CatFact is a band factorization phase.
	CatFact = "fact"
	// CatRefact is a numeric refactorization through a frozen pattern.
	CatRefact = "refact"
	// CatIter is one solver iteration (compute + ship + exchange).
	CatIter = "iter"
	// CatInner is one two-stage inner relaxation stage (the scheduled
	// preconditioned sweeps inside an outer iteration).
	CatInner = "inner"
	// CatPhase is a coarse driver phase (e.g. dslu forward/backward solve).
	CatPhase = "phase"
	// CatRetry is a retransmission backoff window.
	CatRetry = "retry"
	// CatDetect is a convergence-detector event (verification wave, refresh).
	CatDetect = "detect"
)

// Span is one interval (or instant, Start == End) of virtual time on a named
// track, with the attributes the exporters and the critical-path profiler
// need. Zero-valued attributes mean "not applicable" and are omitted from
// exports.
type Span struct {
	// Track names the timeline row: a process name, "net", a link name, or a
	// "solver:<rank>" overlay.
	Track string
	// Cat is the span category (one of the Cat* constants).
	Cat string
	// Name is the display label.
	Name string
	// Start is the span's first instant in virtual seconds.
	Start float64
	// End is the span's last instant in virtual seconds (== Start for
	// instantaneous events).
	End float64
	// Flops is the arithmetic work charged inside the span.
	Flops float64
	// Bytes is the wire size for send/net spans.
	Bytes int64
	// From is the sending process for net spans and the source of the
	// delivered message for wait spans.
	From string
	// To is the destination process for send/net spans.
	To string
	// Link names the route (link names joined by '+') for net spans.
	Link string
	// Tag is the application message tag for send/net/wait spans.
	Tag int
	// Iter is the solver iteration number for iteration-scoped spans.
	Iter int
	// Seq is the per-sender message sequence number for net spans (the
	// sender's process ID packed in the high bits, its send counter in the
	// low bits) — unique across the run and stable for any lane or worker
	// count.
	Seq int64
	// Cause is the sequence number of the message whose arrival ended a wait
	// span (0 when the wait ended without a delivery, e.g. a timeout).
	Cause int64
	// Queue is the link-queueing delay inside a send/net span.
	Queue float64
	// Note carries free-form detail (e.g. the drop reason of a lost message).
	Note string
}

// SamplePoint is one metric observation: a named series on a track at a
// virtual instant.
type SamplePoint struct {
	// Series is the metric name (e.g. "residual", "diff").
	Series string
	// Track is the emitting rank or resource.
	Track string
	// T is the virtual time of the observation.
	T float64
	// V is the observed value.
	V float64

	idx int64
}

// CounterTotal is the final value of a named accumulator on a track.
type CounterTotal struct {
	// Name is the counter name (e.g. "retries", "link_bytes").
	Name string
	// Track is the counted rank or resource.
	Track string
	// Value is the accumulated total.
	Value float64
}

type countKey struct {
	name, track string
}

// linkCounts is the totals of one link's three link-stat counters
// (CntLinkBytes, CntLinkMsgs, CntLinkQueue, in that order), with which of
// them were counted at all: a counter never counted is not listed.
type linkCounts struct {
	link string
	v    [3]float64
	has  [3]bool
}

// linkCounter returns the index of a link-stat counter name in
// linkCounts.v, or -1 for any other name.
func linkCounter(name string) int {
	switch name {
	case CntLinkBytes:
		return 0
	case CntLinkMsgs:
		return 1
	case CntLinkQueue:
		return 2
	}
	return -1
}

// spanChunk is the fixed capacity of one span-storage chunk. Chunked
// storage keeps recording an amortized-one-append operation without the
// doubling reallocation-and-copy of a flat slice — on a 1000-host run the
// recorder holds millions of spans, and repeatedly copying them was one of
// the per-iteration allocation storms the event-core refactor removes.
const spanChunk = 4096

// sortSplit is the span count from which exportOrder sorts in two halves.
const sortSplit = 4096

// Recorder collects spans, samples and counters from an engine run. The zero
// value is ready to use; a nil *Recorder is a valid no-op sink (every method
// checks). A Recorder must only be fed from serialized emission points (see
// the package comment); it is not otherwise goroutine-safe.
type Recorder struct {
	// spans is chunked: every chunk but the last holds exactly spanChunk
	// entries, so recording never moves previously stored spans.
	spans  [][]Span
	nSpans int
	// order is the export order (see the package comment) as chunk
	// positions: built on the first export after a span was recorded and
	// walked by every later one (trace, windows, metrics, critical path), so
	// they share one sort and copy no span. It is current while it holds
	// every stored span; recording never touches it.
	order []int32
	// sorted caches the copy Spans returns, current on the same terms.
	sorted  []Span
	samples []SamplePoint
	counts  map[countKey]float64
	// links holds the link-stat counters, one cell per link found through
	// linkIdx, so a message crossing a link updates its three totals with
	// one map probe.
	links   []linkCounts
	linkIdx map[string]int
	nextIdx int64
	journal *journalLog
	// stream, when non-nil, receives every span instead of chunked storage
	// (bounded-memory streaming mode; see stream.go).
	stream *Streamer
}

// SetStream switches the recorder into streaming mode: spans are handed to
// the streamer's flight-recorder ring instead of being retained, and
// Recorder.Advance watermarks from the engine's commit points drive the
// incremental flush. Samples and counters are still retained (they are tiny
// and the aggregate metrics need them); Spans() returns nothing, so the
// batch exporters and the critical-path walk are unavailable on a streaming
// recorder. Must be called before recording starts; panics on a journal
// recorder (a sharded engine's lanes journal as usual — the stream attaches
// to the destination recorder the merge replays into).
func (r *Recorder) SetStream(st *Streamer) {
	if r.journal != nil {
		panic("obs: SetStream on a journal recorder")
	}
	if r.nSpans > 0 {
		panic("obs: SetStream after recording started")
	}
	r.stream = st
	st.rec = r
}

// Advance tells a streaming recorder that the engine's commit time reached
// t: every pending span that ended strictly before t is final (commit keys
// are non-decreasing and spans never end before the commit that emits them)
// and is flushed to the trace writer. A no-op on nil or non-streaming
// recorders, so the engine can call it unconditionally from its serialized
// commit points.
func (r *Recorder) Advance(t float64) {
	if r == nil || r.stream == nil {
		return
	}
	r.stream.advance(t)
}

// countOp is one journaled Count call. Counter accumulation is a float sum,
// so replay must re-apply the additions in merged order rather than merging
// per-journal totals — float addition is not associative.
type countOp struct {
	name, track string
	v           float64
}

// journalLog stores a recorder's emissions as an ordered operation log
// instead of final storage: kinds is the per-operation type tape ('s' span,
// 'p' sample, 'c' count) and the three side arrays hold the payloads in
// emission order.
type journalLog struct {
	kinds   []byte
	spans   []Span
	samples []SamplePoint
	counts  []countOp
}

// NewJournal returns a recorder in journal mode: every Span/Sample/Count
// call is appended to an ordered operation log instead of final storage, to
// be replayed later into a destination recorder via NewReplayer. A sharded
// engine gives each scheduler lane a journal recorder and replays the lanes'
// logs in merged commit order, so the destination recorder's emission
// indices — and therefore every export — match a single-lane run exactly.
func NewJournal() *Recorder {
	return &Recorder{journal: &journalLog{}}
}

// NumOps returns how many operations the journal holds (0 for nil or a
// non-journal recorder). Lane schedulers snapshot this at commit points to
// delimit each commit's operation range.
func (r *Recorder) NumOps() int {
	if r == nil || r.journal == nil {
		return 0
	}
	return len(r.journal.kinds)
}

// Replayer replays a journal recorder's operation log into a destination
// recorder, preserving the journal's internal order. Cursors only move
// forward: ReplayTo(n) applies operations [cursor, n) exactly once.
type Replayer struct {
	j   *journalLog
	dst *Recorder
	op  int // cursor into j.kinds
	sp  int // cursor into j.spans
	sa  int // cursor into j.samples
	co  int // cursor into j.counts
}

// NewReplayer returns a replayer that feeds this journal recorder's log into
// dst. Panics if the recorder is not in journal mode.
func (r *Recorder) NewReplayer(dst *Recorder) *Replayer {
	if r == nil || r.journal == nil {
		panic("obs: NewReplayer on a non-journal recorder")
	}
	return &Replayer{j: r.journal, dst: dst}
}

// ReplayTo applies journal operations up to (but not including) index n into
// the destination recorder. Calls with n at or below the cursor are no-ops.
func (rp *Replayer) ReplayTo(n int) {
	for ; rp.op < n; rp.op++ {
		switch rp.j.kinds[rp.op] {
		case 's':
			rp.dst.Span(rp.j.spans[rp.sp])
			rp.sp++
		case 'p':
			s := rp.j.samples[rp.sa]
			rp.dst.Sample(s.Series, s.Track, s.T, s.V)
			rp.sa++
		default:
			c := rp.j.counts[rp.co]
			rp.dst.Count(c.name, c.track, c.v)
			rp.co++
		}
	}
}

// Span records one span. Zero-duration spans with no cause and no flops are
// kept too (instantaneous marks); the caller decides what is worth emitting.
func (r *Recorder) Span(s Span) {
	if r == nil {
		return
	}
	if j := r.journal; j != nil {
		j.kinds = append(j.kinds, 's')
		j.spans = append(j.spans, s)
		return
	}
	if st := r.stream; st != nil {
		r.nSpans++
		st.push(&s)
		return
	}
	if n := len(r.spans); n == 0 || len(r.spans[n-1]) == spanChunk {
		r.spans = append(r.spans, make([]Span, 0, spanChunk))
	}
	last := len(r.spans) - 1
	r.spans[last] = append(r.spans[last], s)
	r.nSpans++
}

// NumSpans returns how many spans have been recorded (0 for nil).
func (r *Recorder) NumSpans() int {
	if r == nil {
		return 0
	}
	return r.nSpans
}

// Sample records one metric observation.
func (r *Recorder) Sample(series, track string, t, v float64) {
	if r == nil {
		return
	}
	if j := r.journal; j != nil {
		j.kinds = append(j.kinds, 'p')
		j.samples = append(j.samples, SamplePoint{Series: series, Track: track, T: t, V: v})
		return
	}
	r.samples = append(r.samples, SamplePoint{Series: series, Track: track, T: t, V: v, idx: r.nextIdx})
	r.nextIdx++
}

// Count adds n to the named accumulator on the track. The link-stat names
// accumulate in the track's link cell, the one CountLink updates.
func (r *Recorder) Count(name, track string, n float64) {
	if r == nil {
		return
	}
	if j := r.journal; j != nil {
		j.kinds = append(j.kinds, 'c')
		j.counts = append(j.counts, countOp{name: name, track: track, v: n})
		return
	}
	if k := linkCounter(name); k >= 0 {
		c := r.linkCell(track)
		c.v[k] += n
		c.has[k] = true
		return
	}
	if r.counts == nil {
		r.counts = map[countKey]float64{}
	}
	r.counts[countKey{name, track}] += n
}

// CountLink records one message crossing a link: bytes on CntLinkBytes, 1
// on CntLinkMsgs and the queueing delay on CntLinkQueue, the same additions
// as the three Count calls.
func (r *Recorder) CountLink(link string, bytes, queue float64) {
	if r == nil {
		return
	}
	if r.journal != nil {
		r.Count(CntLinkBytes, link, bytes)
		r.Count(CntLinkMsgs, link, 1)
		r.Count(CntLinkQueue, link, queue)
		return
	}
	c := r.linkCell(link)
	c.v[0] += bytes
	c.v[1]++
	c.v[2] += queue
	c.has = [3]bool{true, true, true}
}

// linkCell returns the link-stat cell of a link, adding it on first use.
func (r *Recorder) linkCell(link string) *linkCounts {
	i, ok := r.linkIdx[link]
	if !ok {
		if r.linkIdx == nil {
			r.linkIdx = map[string]int{}
		}
		i = len(r.links)
		r.linkIdx[link] = i
		r.links = append(r.links, linkCounts{link: link})
	}
	return &r.links[i]
}

// Spans returns a copy of every recorded span in the export order (see the
// package comment). The copy is built on the first call after a span was
// recorded and shared by every later one, so callers must not modify it. The
// package's own exports walk the chunks through the index instead.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	order := r.exportOrder()
	if len(r.sorted) != len(order) {
		r.sorted = make([]Span, len(order))
		for i, pos := range order {
			r.sorted[i] = *r.at(pos)
		}
	}
	return r.sorted
}

// at returns the span stored at a chunk position.
func (r *Recorder) at(pos int32) *Span {
	return &r.spans[pos/spanChunk][pos%spanChunk]
}

// exportOrder returns the chunk positions of the stored spans sorted by
// (Start, Track, emission order) — nil for a nil, streaming or journal
// recorder, which stores none. A position is the span's emission index, so
// the last key breaks ties the way the emission index always did, and the
// key is a strict total order: from sortSplit spans on, the two halves are
// sorted side by side and merged, giving the permutation one sort gives.
func (r *Recorder) exportOrder() []int32 {
	if r == nil {
		return nil
	}
	if len(r.spans) == 0 || len(r.order) == r.nSpans {
		return r.order
	}
	order := make([]int32, r.nSpans)
	for i := range order {
		order[i] = int32(i)
	}
	compare := func(a, b int32) int {
		sa, sb := r.at(a), r.at(b)
		if c := cmp.Compare(sa.Start, sb.Start); c != 0 {
			return c
		}
		if c := strings.Compare(sa.Track, sb.Track); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	if len(order) < sortSplit {
		slices.SortFunc(order, compare)
	} else {
		h := len(order) / 2
		done := make(chan struct{})
		go func() {
			slices.SortFunc(order[:h], compare)
			close(done)
		}()
		slices.SortFunc(order[h:], compare)
		<-done
		// Merge through a copy of the first half: the write position never
		// passes the read position in the second.
		first := slices.Clone(order[:h])
		i, k, o := 0, h, 0
		for ; i < len(first) && k < len(order); o++ {
			if compare(order[k], first[i]) < 0 {
				order[o], k = order[k], k+1
			} else {
				order[o], i = first[i], i+1
			}
		}
		copy(order[o:], first[i:])
	}
	r.order = order
	return order
}

// Samples returns every recorded observation sorted by (Series, Track, T,
// emission index).
func (r *Recorder) Samples() []SamplePoint {
	if r == nil {
		return nil
	}
	out := make([]SamplePoint, len(r.samples))
	copy(out, r.samples)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Series != b.Series {
			return a.Series < b.Series
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.T != b.T {
			return a.T < b.T
		}
		return a.idx < b.idx
	})
	return out
}

// Counters returns the accumulator totals sorted by (Name, Track).
func (r *Recorder) Counters() []CounterTotal {
	if r == nil {
		return nil
	}
	out := make([]CounterTotal, 0, len(r.counts)+3*len(r.links))
	for k, v := range r.counts {
		out = append(out, CounterTotal{Name: k.name, Track: k.track, Value: v})
	}
	names := [3]string{CntLinkBytes, CntLinkMsgs, CntLinkQueue}
	for i := range r.links {
		c := &r.links[i]
		for k, name := range names {
			if c.has[k] {
				out = append(out, CounterTotal{Name: name, Track: c.link, Value: c.v[k]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Track < out[j].Track
	})
	return out
}

// Scope is a per-process emitting handle: a recorder plus the process's
// identity, threaded through the solver drivers beside their counter and
// tracer (simctx.Ctx.Obs). A nil *Scope is a valid no-op. Spans emitted
// through a scope default to the process's "solver:<name>" overlay track, so
// driver-level phases never collide with the simulator's host-level spans;
// samples and counters carry the plain process name.
type Scope struct {
	rec  *Recorder
	name string
}

// NewScope returns an emitting handle for the named process, or nil when the
// recorder is nil (observability off).
func NewScope(rec *Recorder, name string) *Scope {
	if rec == nil {
		return nil
	}
	return &Scope{rec: rec, name: name}
}

// Span records a span, placing it on the scope's "solver:<name>" track when
// the span names no track of its own.
func (sc *Scope) Span(s Span) {
	if sc == nil {
		return
	}
	if s.Track == "" {
		s.Track = "solver:" + sc.name
	}
	sc.rec.Span(s)
}

// Sample records a metric observation on the scope's process track.
func (sc *Scope) Sample(series string, t, v float64) {
	if sc == nil {
		return
	}
	sc.rec.Sample(series, sc.name, t, v)
}

// Count adds n to the named accumulator on the scope's process track.
func (sc *Scope) Count(name string, n float64) {
	if sc == nil {
		return
	}
	sc.rec.Count(name, sc.name, n)
}
