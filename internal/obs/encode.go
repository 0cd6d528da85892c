package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
)

// The JSON exports are written by hand, appending to one reused byte buffer:
// a traced grid-scale run serializes a few hundred thousand events, and
// reflection-driven encoding of them costs several times the simulation they
// describe. The bytes are exactly those encoding/json produces for the
// equivalent tagged structs, which the _test.go oracle holds and the
// differential and fuzz tests compare against.

// flushAt is the buffered size past which a jsonWriter hands its bytes to
// the underlying writer: large enough that a trace costs one write per few
// hundred events, small enough to stay cache-resident.
const flushAt = 32 << 10

// jsonWriter appends JSON to an internal buffer and drains it to w in
// flushAt-sized writes. The first failure — a write error or a non-finite
// float, which JSON cannot represent — is latched in err; from then on
// nothing more is written. A jsonWriter with a nil w is a chunk writer: it
// encodes records for another writer's rows and never writes (see rows).
type jsonWriter struct {
	w   io.Writer
	b   []byte
	err error
	// bad names the first non-finite float field appended since it was last
	// cleared; the caller turns it into an error naming the record.
	bad string
	// memo holds the text of recently written non-integral numbers.
	memo *floatMemo
	// started reports that a trace-event document's header is written.
	started bool
	// marks are a chunk writer's buffer lengths at its flushIfFull calls.
	marks []int
	// slots are the chunk writers of the document's rows, made on first use.
	slots []*chunkSlot
}

func newJSONWriter(w io.Writer) jsonWriter {
	return jsonWriter{w: w, b: make([]byte, 0, flushAt+4096), memo: new(floatMemo)}
}

// memoBits sizes the number memo at 1<<memoBits slots.
const memoBits = 8

// floatMemo is a direct-mapped cache from a float's bits to the text
// appendFloat gave it. A trace repeats its numbers — span ends are the next
// span's starts, link rows share byte counts — and copying the text back is
// several times cheaper than running the shortest-digits search again. A slot
// holding bits 0 is empty: +0 is integral and never reaches the memo.
type floatMemo struct {
	bits [1 << memoBits]uint64
	n    [1 << memoBits]uint8
	// text is wide enough for the longest appendFloat output, 25 bytes
	// ("-0.0000012345678901234567").
	text [1 << memoBits][32]byte
}

// memoSlot is the memo slot of a float's bits: the top memoBits bits of a
// Fibonacci hash, so values differing only in low mantissa bits spread.
func memoSlot(bits uint64) int {
	return int(bits * 0x9e3779b97f4a7c15 >> (64 - memoBits))
}

// flush drains the buffer unless a failure is latched.
func (j *jsonWriter) flush() {
	if j.err == nil && len(j.b) > 0 {
		_, j.err = j.w.Write(j.b)
	}
	j.b = j.b[:0]
}

// flushIfFull drains the buffer once it has grown past flushAt. Called
// between records, so a record is never split by a failed write. A chunk
// writer marks the point instead, for its owner to replay (put).
func (j *jsonWriter) flushIfFull() {
	if j.w == nil {
		if j.err == nil {
			j.marks = append(j.marks, len(j.b))
		}
		return
	}
	if len(j.b) >= flushAt {
		j.flush()
	}
}

// Ordered parallel export: rows encodes chunk c of chunkRecs records into
// slot c mod chunkSlots, on encoder c mod chunkEncoders. Encoder 0 is the
// caller, which also appends every chunk to its buffer in chunk order; the
// others are helper goroutines. chunkSlots is a multiple of chunkEncoders,
// so a slot has one encoder. Memory is fixed whatever GOMAXPROCS is.
const (
	chunkRecs     = 128
	chunkSlots    = 4
	chunkEncoders = 2
)

// chunkSlot is a chunk writer with its hand-off tokens: ready passes a
// helper's encoded chunk to the caller, free passes the drained slot back.
type chunkSlot struct {
	jsonWriter
	ready, free chan struct{}
}

func newChunkSlot() *chunkSlot {
	s := &chunkSlot{ready: make(chan struct{}, 1), free: make(chan struct{}, 1)}
	s.b, s.memo, s.marks = make([]byte, 0, flushAt+4096), new(floatMemo), make([]int, 0, chunkRecs)
	s.free <- struct{}{}
	return s
}

// rows writes records 0..n-1 in order: rec(w, i) appends record i to w and
// calls w.flushIfFull wherever the document may be drained. Helpers share
// the chunks when GOMAXPROCS allows and there are two chunks or more; put
// replays each chunk's marks, so every Write receives the bytes it would if
// rec ran on j itself. The first failure in record order latches, later
// chunks are dropped, and every helper has exited when rows returns. On a
// chunk writer, a list nested in a record, the records join its chunk.
func (j *jsonWriter) rows(n int, rec func(w *jsonWriter, i int)) {
	if j.w == nil {
		j.encode(0, n, rec)
		return
	}
	if n == 0 || j.err != nil {
		return
	}
	chunks := (n + chunkRecs - 1) / chunkRecs
	encoders, slots := min(runtime.GOMAXPROCS(0), chunkEncoders), chunkSlots
	if chunks < 2 || encoders < 2 {
		encoders, slots = 1, 1
	}
	for len(j.slots) < slots {
		j.slots = append(j.slots, newChunkSlot())
	}
	set, started := j.slots[:slots], j.started
	fill := func(s *chunkSlot, c int) {
		s.b, s.marks, s.err, s.bad, s.started = s.b[:0], s.marks[:0], nil, "", started
		s.encode(c*chunkRecs, min(n, (c+1)*chunkRecs), rec)
	}
	var helpers sync.WaitGroup
	stop := make(chan struct{})
	defer helpers.Wait()
	defer close(stop)
	for k := 1; k < encoders; k++ {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			for c := k; c < chunks; c += encoders {
				s := set[c%slots]
				select {
				case <-s.free:
				case <-stop:
					return
				}
				fill(s, c)
				s.ready <- struct{}{}
			}
		}()
	}
	for c := 0; c < chunks && j.err == nil; c++ {
		s, mine := set[c%slots], c%encoders == 0
		if mine {
			fill(s, c)
		} else {
			<-s.ready
		}
		j.put(&s.jsonWriter)
		if !mine {
			s.free <- struct{}{}
		}
	}
}

// encode appends records from..to-1, stopping at the first failure.
func (j *jsonWriter) encode(from, to int, rec func(w *jsonWriter, i int)) {
	for i := from; i < to && j.err == nil; i++ {
		rec(j, i)
	}
}

// put appends an encoded chunk, draining at its marks as the sequential
// encoder drains at them, and latches the chunk's failure after its bytes.
func (j *jsonWriter) put(s *jsonWriter) {
	from := 0
	for _, m := range s.marks {
		j.b = append(j.b, s.b[from:m]...)
		from = m
		if j.flushIfFull(); j.err != nil {
			return
		}
	}
	j.b = append(j.b, s.b[from:]...)
	j.err = s.err
}

func (j *jsonWriter) raw(s string) { j.b = append(j.b, s...) }
func (j *jsonWriter) int(i int64)  { j.b = strconv.AppendInt(j.b, i, 10) }
func (j *jsonWriter) str(s string) { j.b = appendString(j.b, s) }

// float appends f in encoding/json's number format. A NaN or infinity is
// recorded in bad under the given field name (and written as 0, to be
// discarded with the failed document).
//
// Two shortcuts give appendFloat's bytes without its digit search. An
// integral f below 2^53 in magnitude has an ulp of at most 1, so its
// shortest round-trip digits are the integer's own, and strconv.AppendInt
// writes them (−0 is excluded: it reads "-0"). Any other value whose bits are
// in the memo is copied from there.
func (j *jsonWriter) float(field string, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if j.bad == "" {
			j.bad = field
		}
		f = 0
	}
	if -1<<53 < f && f < 1<<53 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			j.b = strconv.AppendInt(j.b, i, 10)
			return
		}
	}
	bits := math.Float64bits(f)
	m, k := j.memo, memoSlot(bits)
	if m.bits[k] == bits {
		j.b = append(j.b, m.text[k][:m.n[k]]...)
		return
	}
	n := len(j.b)
	j.b = appendFloat(j.b, f)
	m.bits[k], m.n[k] = bits, uint8(copy(m.text[k][:], j.b[n:]))
}

// appendFloat formats a finite f the way encoding/json does: the shortest
// representation that round-trips, in exponent form outside [1e-6, 1e21)
// with the exponent's leading zero dropped (e-09 becomes e-9).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string, escaped as encoding/json escapes
// it. Track, category and link names are printable ASCII and are copied as
// they are; the HTML-sensitive <, > and & (every transfer is named "a>b")
// become \u003c, \u003e and \u0026 here; a string holding anything else
// encoding/json would escape or have to validate — quotes, backslashes,
// control characters, non-ASCII — is handed to encoding/json itself.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start, from := len(b), 0
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '<' || c == '>' || c == '&':
			b = append(b, s[from:i]...)
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			from = i + 1
		case c < 0x20 || c >= 0x7f || c == '"' || c == '\\':
			esc, _ := json.Marshal(s) // cannot fail for a string
			return append(b[:start], esc...)
		}
	}
	b = append(b, s[from:]...)
	return append(b, '"')
}

// The indented documents (metrics.json, windows.json) are laid out as
// json.Encoder with SetIndent("", "  ") lays them out: every member and
// array element on its own line, two spaces per nesting level.

// nl starts a new line at the given nesting depth.
func (j *jsonWriter) nl(depth int) {
	j.b = append(j.b, '\n')
	for ; depth > 0; depth-- {
		j.b = append(j.b, ' ', ' ')
	}
}

// member starts the next member of the object being written at depth. No
// value ends in '{', so that byte can only be the object's opening brace —
// and the buffer cannot be empty here, because it is only drained, and a
// chunk writer only started, between array elements (see array).
func (j *jsonWriter) member(depth int, key string) {
	if j.b[len(j.b)-1] != '{' {
		j.b = append(j.b, ',')
	}
	j.nl(depth)
	j.b = append(j.b, '"')
	j.raw(key)
	j.raw(`": `)
}

func (j *jsonWriter) strMember(depth int, key, v string) {
	j.member(depth, key)
	j.str(v)
}

func (j *jsonWriter) intMember(depth int, key string, v int) {
	j.member(depth, key)
	j.int(int64(v))
}

func (j *jsonWriter) floatMember(depth int, key string, v float64) {
	j.member(depth, key)
	j.float(key, v)
}

// array writes member key of the object at depth as an array of n objects,
// row(w, i) writing the members of the i-th to w at depth+2. A non-finite
// float in a row fails the document with an error naming the row and the
// member.
func (j *jsonWriter) array(depth int, key string, n int, row func(w *jsonWriter, i int)) {
	j.member(depth, key)
	j.b = append(j.b, '[')
	j.rows(n, func(w *jsonWriter, i int) {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.flushIfFull()
		w.nl(depth + 1)
		w.b = append(w.b, '{')
		row(w, i)
		w.nl(depth + 1)
		w.b = append(w.b, '}')
		w.check(key, i)
	})
	if n > 0 {
		j.nl(depth)
	}
	j.b = append(j.b, ']')
}

// check latches the error for a non-finite float written since the last
// check; i < 0 means the float was a member of key itself, not of a row.
func (j *jsonWriter) check(key string, i int) {
	if j.bad == "" || j.err != nil {
		return
	}
	if i < 0 {
		j.err = fmt.Errorf("obs: %s.%s is not a finite number", key, j.bad)
	} else {
		j.err = fmt.Errorf("obs: %s[%d].%s is not a finite number", key, i, j.bad)
	}
}

// end terminates an indented document, drains the buffer and returns the
// first failure.
func (j *jsonWriter) end() error {
	j.raw("\n}\n")
	j.flush()
	return j.err
}

// Trace-event process groups: Perfetto renders one collapsible group per pid.
const (
	pidGrid    = 1 // process tracks: compute/send/wait/sleep/mark spans
	pidNet     = 2 // message transfers in flight (async events)
	pidSolver  = 3 // per-rank solver overlays: fact/refact/iter/phase/...
	pidMetrics = 4 // counter tracks (samples as Chrome "C" events)
)

// pidNames labels the process groups, indexed by pid.
var pidNames = [pidMetrics + 1]string{pidGrid: "grid", pidNet: "network", pidSolver: "solver", pidMetrics: "metrics"}

// pidOf maps a span category to its trace-event process group.
func pidOf(cat string) int {
	switch cat {
	case CatNet:
		return pidNet
	case CatFact, CatRefact, CatIter, CatPhase, CatRetry, CatDetect:
		return pidSolver
	default:
		return pidGrid
	}
}

// usec converts virtual seconds to the microseconds the trace-event format
// expects.
func usec(t float64) float64 { return t * 1e6 }

// The trace-event methods below write one Chrome trace-event JSON document,
// event by event. They are the single serializer behind the batch exporter
// (WriteTraceJSON) and the streaming one (Streamer): the two differ only in
// the order they feed them. An event's members are written in a fixed order
// and its args in alphabetical key order, so equal events always yield equal
// bytes.

// open begins the next event: the document header before the first, a
// separating comma before every later one.
func (j *jsonWriter) open() {
	if j.started {
		j.b = append(j.b, ',')
		return
	}
	j.started = true
	j.raw(`{"traceEvents":[`)
}

// head writes an event's leading members up to and including "ts"; field is
// the name a non-finite ts is reported under.
func (j *jsonWriter) head(name, cat, ph, field string, ts float64) {
	j.open()
	j.raw(`{"name":`)
	j.str(name)
	if cat != "" {
		j.raw(`,"cat":`)
		j.str(cat)
	}
	j.raw(`,"ph":"`)
	j.raw(ph)
	j.raw(`","ts":`)
	j.float(field, ts)
}

// ids writes the "pid" and "tid" members.
func (j *jsonWriter) ids(pid, tid int) {
	j.raw(`,"pid":`)
	j.int(int64(pid))
	j.raw(`,"tid":`)
	j.int(int64(tid))
}

// meta writes a metadata event (kind is process_name or thread_name)
// labelling a process group or one of its tracks.
func (j *jsonWriter) meta(kind string, pid, tid int, label string) {
	j.head(kind, "", "M", "", 0)
	j.ids(pid, tid)
	j.raw(`,"args":{"name":`)
	j.str(label)
	j.raw(`}}`)
}

// span writes one span: an async "b"/"e" pair keyed by the message sequence
// number on the network group (transfers on a shared link overlap), a
// complete "X" event anywhere else. A non-finite time or attribute fails the
// document with an error naming the span and the field.
func (j *jsonWriter) span(s *Span, pid, tid int) {
	if j.err != nil {
		return
	}
	name := s.Name
	if name == "" {
		name = s.Cat
	}
	if pid == pidNet {
		j.head(name, s.Cat, "b", "Start", usec(s.Start))
		j.ids(pid, tid)
		j.id(s.Seq)
		j.args(s)
		j.b = append(j.b, '}')
		j.head(name, s.Cat, "e", "End", usec(s.End))
		j.ids(pid, tid)
		j.id(s.Seq)
		j.b = append(j.b, '}')
	} else {
		j.head(name, s.Cat, "X", "Start", usec(s.Start))
		j.raw(`,"dur":`)
		j.float("End", usec(s.End-s.Start))
		j.ids(pid, tid)
		j.args(s)
		j.b = append(j.b, '}')
	}
	if j.bad != "" {
		j.err = fmt.Errorf("obs: span %q on track %q: %s is not a finite number", name, s.Track, j.bad)
		return
	}
	j.flushIfFull()
}

// id writes the async-pair "id" member, omitted when zero.
func (j *jsonWriter) id(seq int64) {
	if seq != 0 {
		j.raw(`,"id":`)
		j.int(seq)
	}
}

// arg begins one member of the args object. No value ends in '{', so that
// byte can only be the object's own opening brace.
func (j *jsonWriter) arg(key string) {
	if j.b[len(j.b)-1] != '{' {
		j.b = append(j.b, ',')
	}
	j.b = append(j.b, '"')
	j.raw(key)
	j.raw(`":`)
}

// args writes a span's non-zero attributes as the "args" object, keys in
// alphabetical order; a span with none gets no "args" member.
func (j *jsonWriter) args(s *Span) {
	n := len(j.b)
	j.raw(`,"args":{`)
	if s.Bytes != 0 {
		j.arg("bytes")
		j.int(s.Bytes)
	}
	if s.Cause != 0 {
		j.arg("cause")
		j.int(s.Cause)
	}
	if s.Flops != 0 {
		j.arg("flops")
		j.float("Flops", s.Flops)
	}
	if s.From != "" {
		j.arg("from")
		j.str(s.From)
	}
	if s.Iter != 0 {
		j.arg("iter")
		j.int(int64(s.Iter))
	}
	if s.Link != "" {
		j.arg("link")
		j.str(s.Link)
	}
	if s.Note != "" {
		j.arg("note")
		j.str(s.Note)
	}
	if s.Queue != 0 {
		j.arg("queue")
		j.float("Queue", s.Queue)
	}
	if s.Seq != 0 {
		j.arg("seq")
		j.int(s.Seq)
	}
	if s.Tag != 0 {
		j.arg("tag")
		j.int(int64(s.Tag))
	}
	if s.To != "" {
		j.arg("to")
		j.str(s.To)
	}
	if j.b[len(j.b)-1] == '{' {
		j.b = j.b[:n]
		return
	}
	j.b = append(j.b, '}')
}

// counterNamer builds the counter-track name "series:track" of a sample.
// Samples arrive grouped by (series, track), so the name is rebuilt only when
// the group changes, not once per sample.
type counterNamer struct{ series, track, name string }

func (c *counterNamer) of(sp *SamplePoint) string {
	if c.name == "" || sp.Series != c.series || sp.Track != c.track {
		c.series, c.track, c.name = sp.Series, sp.Track, sp.Series+":"+sp.Track
	}
	return c.name
}

// counter writes one metric sample as a counter event on the metrics group.
func (j *jsonWriter) counter(name string, tid int, t, v float64) {
	if j.err != nil {
		return
	}
	j.head(name, "", "C", "T", usec(t))
	j.ids(pidMetrics, tid)
	j.raw(`,"args":{"value":`)
	j.float("V", v)
	j.raw(`}}`)
	if j.bad != "" {
		j.err = fmt.Errorf("obs: sample %q: %s is not a finite number", name, j.bad)
		return
	}
	j.flushIfFull()
}

// finish terminates the document, drains the buffer and returns the first
// failure.
func (j *jsonWriter) finish() error {
	if !j.started {
		j.open()
	}
	j.raw("],\"displayTimeUnit\":\"ms\"}\n")
	j.flush()
	return j.err
}
