package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
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
// nothing more is written.
type jsonWriter struct {
	w   io.Writer
	b   []byte
	err error
	// bad names the first non-finite float field appended since it was last
	// cleared; the caller turns it into an error naming the record.
	bad string
	// memo holds the text of recently written non-integral numbers.
	memo *floatMemo
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
// between records, so a record is never split by a failed write.
func (j *jsonWriter) flushIfFull() {
	if len(j.b) >= flushAt {
		j.flush()
	}
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
// and the buffer cannot be empty here, because it is only drained between
// array elements (see rows).
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

// rows writes member key of the object at depth as an array of n objects,
// row(i) writing the members of the i-th at depth+2. A non-finite float in a
// row fails the document with an error naming the row and the member.
func (j *jsonWriter) rows(depth int, key string, n int, row func(i int)) {
	j.member(depth, key)
	j.b = append(j.b, '[')
	for i := 0; i < n && j.err == nil; i++ {
		if i > 0 {
			j.b = append(j.b, ',')
		}
		j.flushIfFull()
		j.nl(depth + 1)
		j.b = append(j.b, '{')
		row(i)
		j.nl(depth + 1)
		j.b = append(j.b, '}')
		j.check(key, i)
	}
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

// traceEncoder writes one Chrome trace-event JSON document, event by event.
// It is the single serializer behind the batch exporter (WriteTraceJSON) and
// the streaming one (Streamer): the two differ only in the order they feed
// it. An event's members are written in a fixed order and its args in
// alphabetical key order, so equal events always yield equal bytes.
type traceEncoder struct {
	jsonWriter
	started bool
}

func newTraceEncoder(w io.Writer) traceEncoder {
	return traceEncoder{jsonWriter: newJSONWriter(w)}
}

// open begins the next event: the document header before the first, a
// separating comma before every later one.
func (e *traceEncoder) open() {
	if e.started {
		e.b = append(e.b, ',')
		return
	}
	e.started = true
	e.raw(`{"traceEvents":[`)
}

// head writes an event's leading members up to and including "ts"; field is
// the name a non-finite ts is reported under.
func (e *traceEncoder) head(name, cat, ph, field string, ts float64) {
	e.open()
	e.raw(`{"name":`)
	e.str(name)
	if cat != "" {
		e.raw(`,"cat":`)
		e.str(cat)
	}
	e.raw(`,"ph":"`)
	e.raw(ph)
	e.raw(`","ts":`)
	e.float(field, ts)
}

// ids writes the "pid" and "tid" members.
func (e *traceEncoder) ids(pid, tid int) {
	e.raw(`,"pid":`)
	e.int(int64(pid))
	e.raw(`,"tid":`)
	e.int(int64(tid))
}

// meta writes a metadata event (kind is process_name or thread_name)
// labelling a process group or one of its tracks.
func (e *traceEncoder) meta(kind string, pid, tid int, label string) {
	e.head(kind, "", "M", "", 0)
	e.ids(pid, tid)
	e.raw(`,"args":{"name":`)
	e.str(label)
	e.raw(`}}`)
}

// span writes one span: an async "b"/"e" pair keyed by the message sequence
// number on the network group (transfers on a shared link overlap), a
// complete "X" event anywhere else. A non-finite time or attribute fails the
// document with an error naming the span and the field.
func (e *traceEncoder) span(s *Span, pid, tid int) {
	if e.err != nil {
		return
	}
	name := s.Name
	if name == "" {
		name = s.Cat
	}
	if pid == pidNet {
		e.head(name, s.Cat, "b", "Start", usec(s.Start))
		e.ids(pid, tid)
		e.id(s.Seq)
		e.args(s)
		e.b = append(e.b, '}')
		e.head(name, s.Cat, "e", "End", usec(s.End))
		e.ids(pid, tid)
		e.id(s.Seq)
		e.b = append(e.b, '}')
	} else {
		e.head(name, s.Cat, "X", "Start", usec(s.Start))
		e.raw(`,"dur":`)
		e.float("End", usec(s.End-s.Start))
		e.ids(pid, tid)
		e.args(s)
		e.b = append(e.b, '}')
	}
	if e.bad != "" {
		e.err = fmt.Errorf("obs: span %q on track %q: %s is not a finite number", name, s.Track, e.bad)
		return
	}
	e.flushIfFull()
}

// id writes the async-pair "id" member, omitted when zero.
func (e *traceEncoder) id(seq int64) {
	if seq != 0 {
		e.raw(`,"id":`)
		e.int(seq)
	}
}

// arg begins one member of the args object. No value ends in '{', so that
// byte can only be the object's own opening brace.
func (e *traceEncoder) arg(key string) {
	if e.b[len(e.b)-1] != '{' {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '"')
	e.raw(key)
	e.raw(`":`)
}

// args writes a span's non-zero attributes as the "args" object, keys in
// alphabetical order; a span with none gets no "args" member.
func (e *traceEncoder) args(s *Span) {
	n := len(e.b)
	e.raw(`,"args":{`)
	if s.Bytes != 0 {
		e.arg("bytes")
		e.int(s.Bytes)
	}
	if s.Cause != 0 {
		e.arg("cause")
		e.int(s.Cause)
	}
	if s.Flops != 0 {
		e.arg("flops")
		e.float("Flops", s.Flops)
	}
	if s.From != "" {
		e.arg("from")
		e.str(s.From)
	}
	if s.Iter != 0 {
		e.arg("iter")
		e.int(int64(s.Iter))
	}
	if s.Link != "" {
		e.arg("link")
		e.str(s.Link)
	}
	if s.Note != "" {
		e.arg("note")
		e.str(s.Note)
	}
	if s.Queue != 0 {
		e.arg("queue")
		e.float("Queue", s.Queue)
	}
	if s.Seq != 0 {
		e.arg("seq")
		e.int(s.Seq)
	}
	if s.Tag != 0 {
		e.arg("tag")
		e.int(int64(s.Tag))
	}
	if s.To != "" {
		e.arg("to")
		e.str(s.To)
	}
	if e.b[len(e.b)-1] == '{' {
		e.b = e.b[:n]
		return
	}
	e.b = append(e.b, '}')
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
func (e *traceEncoder) counter(name string, tid int, t, v float64) {
	if e.err != nil {
		return
	}
	e.head(name, "", "C", "T", usec(t))
	e.ids(pidMetrics, tid)
	e.raw(`,"args":{"value":`)
	e.float("V", v)
	e.raw(`}}`)
	if e.bad != "" {
		e.err = fmt.Errorf("obs: sample %q: %s is not a finite number", name, e.bad)
		return
	}
	e.flushIfFull()
}

// finish terminates the document, drains the buffer and returns the first
// failure.
func (e *traceEncoder) finish() error {
	if !e.started {
		e.open()
	}
	e.raw("],\"displayTimeUnit\":\"ms\"}\n")
	e.flush()
	return e.err
}
