package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// The reference the hand-written encoder is held to: the reflection-driven
// structs the exports used to be marshalled from. encoding/json emits struct
// fields in declaration order and map keys sorted.

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// spanArgs builds the args map for a span, omitting zero-valued attributes.
func spanArgs(s Span) map[string]any {
	a := map[string]any{}
	if s.Flops != 0 {
		a["flops"] = s.Flops
	}
	if s.Bytes != 0 {
		a["bytes"] = s.Bytes
	}
	if s.From != "" {
		a["from"] = s.From
	}
	if s.To != "" {
		a["to"] = s.To
	}
	if s.Link != "" {
		a["link"] = s.Link
	}
	if s.Tag != 0 {
		a["tag"] = s.Tag
	}
	if s.Iter != 0 {
		a["iter"] = s.Iter
	}
	if s.Seq != 0 {
		a["seq"] = s.Seq
	}
	if s.Cause != 0 {
		a["cause"] = s.Cause
	}
	if s.Queue != 0 {
		a["queue"] = s.Queue
	}
	if s.Note != "" {
		a["note"] = s.Note
	}
	if len(a) == 0 {
		return nil
	}
	return a
}

func refMeta(kind string, pid, tid int, label string) traceEvent {
	return traceEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": label}}
}

// refSpanEvents is the reference event list of one span.
func refSpanEvents(s Span, pid, tid int) []traceEvent {
	name := s.Name
	if name == "" {
		name = s.Cat
	}
	if pid == pidNet {
		return []traceEvent{
			{Name: name, Cat: s.Cat, Ph: "b", Ts: usec(s.Start), Pid: pid, Tid: tid, ID: s.Seq, Args: spanArgs(s)},
			{Name: name, Cat: s.Cat, Ph: "e", Ts: usec(s.End), Pid: pid, Tid: tid, ID: s.Seq},
		}
	}
	dur := usec(s.End - s.Start)
	return []traceEvent{{Name: name, Cat: s.Cat, Ph: "X", Ts: usec(s.Start), Dur: &dur, Pid: pid, Tid: tid, Args: spanArgs(s)}}
}

func refCounter(sp SamplePoint, tid int) traceEvent {
	return traceEvent{Name: sp.Series + ":" + sp.Track, Ph: "C", Ts: usec(sp.T), Pid: pidMetrics, Tid: tid,
		Args: map[string]any{"value": sp.V}}
}

// refBatchTrace is the reference batch document: tids by sorted track name
// per process group, spans in (Start, Track, emission) order, then counters.
func refBatchTrace(spans []Span, samples []SamplePoint) ([]byte, error) {
	spans = append([]Span(nil), spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Track < spans[j].Track
	})
	sets := map[int]map[string]bool{}
	add := func(pid int, track string) {
		if sets[pid] == nil {
			sets[pid] = map[string]bool{}
		}
		sets[pid][track] = true
	}
	for _, s := range spans {
		add(pidOf(s.Cat), s.Track)
	}
	for _, sp := range samples {
		add(pidMetrics, sp.Series+":"+sp.Track)
	}
	tids := map[int]map[string]int{}
	events := []traceEvent{}
	for pid := pidGrid; pid <= pidMetrics; pid++ {
		if len(sets[pid]) == 0 {
			continue
		}
		events = append(events, refMeta("process_name", pid, 0, pidNames[pid]))
		var names []string
		for n := range sets[pid] {
			names = append(names, n)
		}
		sort.Strings(names)
		tids[pid] = map[string]int{}
		for i, n := range names {
			tids[pid][n] = i
			events = append(events, refMeta("thread_name", pid, i, n))
		}
	}
	for _, s := range spans {
		pid := pidOf(s.Cat)
		events = append(events, refSpanEvents(s, pid, tids[pid][s.Track])...)
	}
	for _, sp := range samples {
		events = append(events, refCounter(sp, tids[pidMetrics][sp.Series+":"+sp.Track]))
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
	return buf.Bytes(), err
}

// refStreamTrace is the reference streamed document of a run flushed only at
// Close: spans in (End, Start, Track, emission) order, tids by first flush,
// every event marshalled on its own.
func refStreamTrace(spans []Span, samples []SamplePoint) ([]byte, error) {
	spans = append([]Span(nil), spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Track < b.Track
	})
	var events []traceEvent
	tids := map[int]map[string]int{}
	tid := func(pid int, track string) int {
		if tids[pid] == nil {
			tids[pid] = map[string]int{}
			events = append(events, refMeta("process_name", pid, 0, pidNames[pid]))
		}
		id, ok := tids[pid][track]
		if !ok {
			id = len(tids[pid])
			tids[pid][track] = id
			events = append(events, refMeta("thread_name", pid, id, track))
		}
		return id
	}
	for _, s := range spans {
		pid := pidOf(s.Cat)
		id := tid(pid, s.Track)
		events = append(events, refSpanEvents(s, pid, id)...)
	}
	for _, sp := range samples {
		id := tid(pidMetrics, sp.Series+":"+sp.Track)
		events = append(events, refCounter(sp, id))
	}
	out := []byte(`{"traceEvents":[`)
	for i, ev := range events {
		if i > 0 {
			out = append(out, ',')
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return append(out, "],\"displayTimeUnit\":\"ms\"}\n"...), nil
}

// refIndented is what the indented exports used to be: json.Encoder with a
// two-space indent over the tagged structs.
func refIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// nastyStrings are the string cases the encoder's fast path must hand to
// encoding/json: escapes, control characters, HTML-sensitive bytes, DEL,
// non-ASCII, the JSONP-unsafe separators and invalid UTF-8.
var nastyStrings = []string{
	"", "h0", "solver:ms-3", "lan+wan+lan", `say "hi"`, `back\slash`, "tab\there", "nl\nhere",
	"\x00\x01\x1f", "\b\f\r", "<script>&amp;</script>", "del\x7f", "héllo wörld", "日本語",
	"line\u2028sep\u2029", "bad\xffutf8", "\xc3", "trunc\xe2\x82", "emoji 🚀",
}

// nastyFloats are the float cases: both sides of the 'f'/'e' switch at 1e-6
// and 1e21, denormals, the extremes, negative zero and exponent clean-up.
var nastyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, 1.5e-9, 1e-10, 1e20, 1e21, 9.99e20, 1.2e22,
	5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	123456.789, -0.000001234, 1e100, -1e-100, 3.0000000000000004, 1 << 53,
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

func randString(rng *rand.Rand) string {
	if rng.Intn(3) > 0 {
		return pick(rng, []string{"h0", "h1", "h2", "net", "solver:h1", "lan", "wan+lan", "compute", "residual"})
	}
	if rng.Intn(2) == 0 {
		return pick(rng, nastyStrings)
	}
	b := make([]byte, rng.Intn(12))
	rng.Read(b)
	return string(b)
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return pick(rng, nastyFloats)
	case 1:
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52) // any finite
	case 2:
		return 0
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
	}
}

func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return rng.Int63() - rng.Int63()
	default:
		return int64(rng.Intn(1000))
	}
}

func randSpan(rng *rand.Rand) Span {
	cats := []string{CatCompute, CatSend, CatNet, CatWait, CatSleep, CatMark, CatFact, CatIter, CatRetry, "", "odd<cat>"}
	return Span{
		Track: randString(rng), Cat: pick(rng, cats), Name: randString(rng),
		// Times stay in a range where Start and End order the exports without
		// overflowing in microseconds; the attributes take any finite value.
		Start: float64(rng.Intn(50)) * 0.125, End: float64(rng.Intn(50)) * 0.125 * float64(1+rng.Intn(2)),
		Flops: randFloat(rng), Bytes: randInt(rng), From: randString(rng), To: randString(rng),
		Link: randString(rng), Tag: int(randInt(rng)), Iter: int(randInt(rng)), Seq: randInt(rng),
		Cause: randInt(rng), Queue: randFloat(rng), Note: randString(rng),
	}
}

// encodeSpan runs one span through the production encoder as the only event
// of a document and returns the bare event bytes.
func encodeSpan(s Span, pid, tid int) ([]byte, error) {
	var buf bytes.Buffer
	enc := newTraceEncoder(&buf)
	enc.span(&s, pid, tid)
	if err := enc.finish(); err != nil {
		return nil, err
	}
	out := buf.Bytes()
	out = bytes.TrimPrefix(out, []byte(`{"traceEvents":[`))
	return bytes.TrimSuffix(out, []byte("],\"displayTimeUnit\":\"ms\"}\n")), nil
}

// checkSpanEncoding holds one span's encoded events to the reference, or,
// where the reference refuses a non-finite value, to failing as well.
func checkSpanEncoding(t *testing.T, s Span, tid int) {
	t.Helper()
	pid := pidOf(s.Cat)
	var want []byte
	var refErr error
	for i, ev := range refSpanEvents(s, pid, tid) {
		if i > 0 {
			want = append(want, ',')
		}
		b, err := json.Marshal(ev)
		if err != nil {
			refErr = err
			break
		}
		want = append(want, b...)
	}
	got, err := encodeSpan(s, pid, tid)
	if refErr != nil {
		if err == nil {
			t.Fatalf("reference rejects %+v (%v) but the encoder wrote %s", s, refErr, got)
		}
		return
	}
	if err != nil {
		t.Fatalf("encoder rejects %+v: %v", s, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("span %+v\n got %s\nwant %s", s, got, want)
	}
}

// TestTraceEncodingMatchesEncodingJSON: on randomized spans and samples the
// hand-written encoder must produce exactly the bytes of the encoding/json
// reference — per event, for the whole batch document and for the whole
// streamed one.
func TestTraceEncodingMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20000; i++ {
		checkSpanEncoding(t, randSpan(rng), rng.Intn(2000))
	}
	for _, s := range nastyStrings {
		for _, f := range nastyFloats {
			checkSpanEncoding(t, Span{Track: s, Cat: CatNet, Name: s, Start: f, End: -f, Flops: f, Queue: -f,
				From: s, To: s, Link: s, Note: s, Seq: 7}, 3)
			checkSpanEncoding(t, Span{Track: s, Cat: s, Start: f, End: f, Flops: -f}, 0)
		}
	}

	for round := 0; round < 20; round++ {
		var spans []Span
		var samples []SamplePoint
		batch, stream := &Recorder{}, &Recorder{}
		var streamed bytes.Buffer
		st := NewStreamer(&streamed, 0)
		stream.SetStream(st)
		for i := rng.Intn(3000); i > 0; i-- {
			s := randSpan(rng)
			spans = append(spans, s)
			batch.Span(s)
			stream.Span(s)
		}
		for i := rng.Intn(200); i > 0; i-- {
			sp := SamplePoint{Series: randString(rng), Track: randString(rng), T: float64(rng.Intn(20)), V: randFloat(rng)}
			batch.Sample(sp.Series, sp.Track, sp.T, sp.V)
			stream.Sample(sp.Series, sp.Track, sp.T, sp.V)
		}
		samples = batch.Samples()

		want, err := refBatchTrace(spans, samples)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteTraceJSON(&got, batch); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("round %d: batch document differs from the reference (%d vs %d bytes)", round, got.Len(), len(want))
		}

		want, err = refStreamTrace(spans, samples)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), want) {
			t.Fatalf("round %d: streamed document differs from the reference (%d vs %d bytes)", round, streamed.Len(), len(want))
		}
	}
}

// FuzzTraceEventEncoding fuzzes every string and float field of a span
// against the encoding/json reference.
func FuzzTraceEventEncoding(f *testing.F) {
	f.Add("h0", "compute", "c", "", "", "", "", 0.0, 1.0, 100.0, 0.0, int64(0), int64(0), int64(0), 0, 0, 0)
	f.Add("net", "net", "a>b", "a", "b", "lan+wan", "dropped: <loss>", 1.8, 2.5, 0.0, 1e-7, int64(20), int64(7)<<40, int64(0), 3, 0, 1)
	f.Add("solver:h\x001", "iter", "", "\xff", "é", " ", `"\`, 5e-324, 1e21, -1.5e-9, math.MaxFloat64, int64(-1), int64(0), int64(9), -2, 14, 2)
	f.Add("a&b", "", "<>", "", "", "", "", -1e300, 1e300, math.Inf(1), math.NaN(), int64(0), int64(0), int64(0), 0, 0, 0)
	f.Fuzz(func(t *testing.T, track, cat, name, from, to, link, note string,
		start, end, flops, queue float64, nbytes, seq, cause int64, tag, iter, tid int) {
		checkSpanEncoding(t, Span{Track: track, Cat: cat, Name: name, Start: start, End: end, Flops: flops,
			Bytes: nbytes, From: from, To: to, Link: link, Tag: tag, Iter: iter, Seq: seq, Cause: cause,
			Queue: queue, Note: note}, tid)
	})
}

// TestIndentedExportsMatchEncodingJSON: WindowedMetrics.WriteJSON and
// Metrics.WriteJSON must produce exactly what json.Encoder with a two-space
// indent produces for the same values — including nil versus empty slices,
// the omitted members, and strings and floats of every awkward kind.
func TestIndentedExportsMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// count picks a row count: none (nil), none (empty, via the caller) or a few.
	count := func() int { return rng.Intn(4) * rng.Intn(40) }
	for round := 0; round < 300; round++ {
		wm := &WindowedMetrics{Width: randFloat(rng), Makespan: randFloat(rng), Windows: int(randInt(rng))}
		for i := count(); i > 0; i-- {
			wm.Hosts = append(wm.Hosts, HostWindow{Track: randString(rng), W: rng.Intn(9), Compute: randFloat(rng),
				Send: randFloat(rng), Wait: randFloat(rng), Sleep: randFloat(rng), Flops: randFloat(rng),
				Retries: randFloat(rng), Utilization: randFloat(rng), WaitShare: randFloat(rng)})
		}
		for i := count(); i > 0; i-- {
			wm.Links = append(wm.Links, LinkWindow{Link: randString(rng), W: rng.Intn(9), Bytes: randFloat(rng),
				Msgs: randFloat(rng), QueueDelay: randFloat(rng), AgeSum: randFloat(rng), AgeMax: randFloat(rng)})
		}
		for i := count(); i > 0; i-- {
			wm.Series = append(wm.Series, SeriesWindow{Series: randString(rng), Track: randString(rng), W: rng.Intn(9),
				Count: randFloat(rng), First: randFloat(rng), Last: randFloat(rng), Min: randFloat(rng), Max: randFloat(rng)})
		}
		for i := count(); i > 0; i-- {
			wm.CritPath = append(wm.CritPath, CPWindow{W: i, Compute: randFloat(rng), Network: randFloat(rng), Wait: randFloat(rng)})
		}
		if rng.Intn(4) == 0 {
			wm.Links = []LinkWindow{}
		}
		want, err := refIndented(wm)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := wm.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("round %d: windows.json differs\n got %s\nwant %s", round, got.Bytes(), want)
		}

		m := &Metrics{Makespan: randFloat(rng)}
		for i := count(); i > 0; i-- {
			m.Hosts = append(m.Hosts, HostUtil{Track: randString(rng), Compute: randFloat(rng), Send: randFloat(rng),
				Wait: randFloat(rng), Sleep: randFloat(rng), Idle: randFloat(rng), Flops: randFloat(rng), Utilization: randFloat(rng)})
		}
		for i := count(); i > 0; i-- {
			m.Links = append(m.Links, LinkStat{Link: randString(rng), Bytes: randFloat(rng), Msgs: randFloat(rng), QueueDelay: randFloat(rng)})
		}
		if rng.Intn(2) == 0 {
			m.Traffic = &TrafficSplit{IntraBytes: randFloat(rng), InterBytes: randFloat(rng), IntraMsgs: randFloat(rng), InterMsgs: randFloat(rng)}
		}
		for i := count(); i > 0; i-- {
			m.Counters = append(m.Counters, CounterTotal{Name: randString(rng), Track: randString(rng), Value: randFloat(rng)})
		}
		for i := count() % 7; i > 0; i-- {
			s := Series{Series: randString(rng), Track: randString(rng)}
			for k := count(); k > 0; k-- {
				s.Points = append(s.Points, SeriesPoint{T: randFloat(rng), V: randFloat(rng)})
			}
			if s.Points == nil && rng.Intn(2) == 0 {
				s.Points = []SeriesPoint{}
			}
			m.Series = append(m.Series, s)
		}
		if m.Hosts == nil && rng.Intn(2) == 0 {
			m.Hosts = []HostUtil{}
		}
		if m.Counters == nil && rng.Intn(2) == 0 {
			m.Counters = []CounterTotal{}
		}
		want, err = refIndented(m)
		if err != nil {
			t.Fatal(err)
		}
		got.Reset()
		if err := m.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("round %d: metrics.json differs\n got %s\nwant %s", round, got.Bytes(), want)
		}
	}

	// A document past the flush threshold goes out in several writes; the
	// member separators must survive the buffer being drained between rows.
	big := &WindowedMetrics{Width: 1, Makespan: 2, Windows: 2}
	for i := 0; i < 2000; i++ {
		big.Hosts = append(big.Hosts, HostWindow{Track: "h", W: i, Compute: float64(i)})
		big.CritPath = append(big.CritPath, CPWindow{W: i, Wait: 1e-9})
	}
	want, _ := refIndented(big)
	var got bytes.Buffer
	if err := big.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if got.Len() < 4*flushAt || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("multi-flush windows.json (%d bytes) differs from the reference (%d bytes)", got.Len(), len(want))
	}

	// Non-finite values: encoding/json refuses them, so must these, naming
	// the row and the member.
	bad := &WindowedMetrics{Width: 1, Hosts: []HostWindow{{Track: "a"}, {Track: "b", Wait: math.NaN()}}}
	if _, err := refIndented(bad); err == nil {
		t.Fatal("reference accepted a NaN")
	}
	if err := bad.WriteJSON(io.Discard); err == nil || !strings.Contains(err.Error(), "hosts[1].wait") {
		t.Fatalf("NaN in windows.json: err = %v, want one naming hosts[1].wait", err)
	}
	badM := &Metrics{Series: []Series{{Series: "residual", Track: "a", Points: []SeriesPoint{{T: 1, V: math.Inf(-1)}}}}}
	if err := badM.WriteJSON(io.Discard); err == nil || !strings.Contains(err.Error(), "points[0].v") {
		t.Fatalf("Inf in metrics.json: err = %v, want one naming points[0].v", err)
	}
}

// TestEmptyRecorderTraceEvents: a run that recorded nothing exports an empty
// event array on both paths, not null on one of them.
func TestEmptyRecorderTraceEvents(t *testing.T) {
	const want = "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n"
	var batch bytes.Buffer
	if err := WriteTraceJSON(&batch, &Recorder{}); err != nil {
		t.Fatal(err)
	}
	if batch.String() != want {
		t.Errorf("batch export of an empty recorder = %q, want %q", batch.String(), want)
	}
	var streamed bytes.Buffer
	st := NewStreamer(&streamed, 0)
	(&Recorder{}).SetStream(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if streamed.String() != want {
		t.Errorf("streamed export of an empty recorder = %q, want %q", streamed.String(), want)
	}
}

// TestNonFiniteSpanFailsExport: a NaN or infinite span attribute must fail
// both export paths with an error that names the span's track, its name and
// the offending field.
func TestNonFiniteSpanFailsExport(t *testing.T) {
	for _, tc := range []struct {
		field string
		span  Span
	}{
		{"Flops", Span{Track: "h7", Cat: CatCompute, Name: "factor", Start: 1, End: 2, Flops: math.NaN()}},
		{"Queue", Span{Track: "net", Cat: CatNet, Name: "a>b", Start: 1, End: 2, Seq: 3, Queue: math.Inf(1)}},
		{"Start", Span{Track: "h7", Cat: CatWait, Name: "wait", Start: math.NaN(), End: 2}},
		{"End", Span{Track: "net", Cat: CatNet, Name: "a>b", Start: 1, End: math.Inf(1), Seq: 3}},
	} {
		check := func(path string, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s: non-finite %s exported without error", path, tc.field)
			}
			for _, part := range []string{tc.span.Track, tc.span.Name, tc.field} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("%s: error %q does not name %q", path, err, part)
				}
			}
		}
		good := Span{Track: "h0", Cat: CatCompute, Name: "c", Start: 0, End: 1}

		batch := &Recorder{}
		batch.Span(good)
		batch.Span(tc.span)
		check("batch", WriteTraceJSON(io.Discard, batch))

		stream := &Recorder{}
		st := NewStreamer(io.Discard, 0)
		stream.SetStream(st)
		stream.Span(good)
		stream.Span(tc.span)
		check("stream", st.Close())
	}

	// A non-finite span several batches and several buffer drains into the
	// stream ends the document where the sequential writer ended it: the
	// same bytes written, the same error.
	spans := pipelineSpans(6 * streamBatch)
	spans[4*streamBatch+3].Flops = math.NaN()
	var got, want bytes.Buffer
	_, samples, err := pipelineStream(t, &got, spans, 0, 0)
	_, werr := sequentialStream(t, &want, spans, samples, 0, 0)
	if err == nil || werr == nil || err.Error() != werr.Error() {
		t.Fatalf("Close = %v, sequential writer = %v", err, werr)
	}
	if want.Len() < 2*flushAt {
		t.Fatalf("the sequential writer drained %d bytes before the cut; the case needs several drains", want.Len())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("cut document differs from the sequential one at byte %d (%d vs %d bytes)",
			firstDiff(got.Bytes(), want.Bytes()), got.Len(), want.Len())
	}
}

// failOnWrite accepts its first ok writes into buf and fails every later
// one, counting the attempts.
type failOnWrite struct {
	ok, calls int
	buf       bytes.Buffer
}

var errDiskFull = errors.New("disk full")

func (w *failOnWrite) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.ok {
		return 0, errDiskFull
	}
	return w.buf.Write(p)
}

// TestStreamerLatchesWriteError: the streamer buffers its events, so the
// writer's failure surfaces at a drain on the encoder goroutine; the first
// one must be latched, returned from Close, and never followed by another
// write, and what reached the writer before it must be the sequential
// writer's bytes.
func TestStreamerLatchesWriteError(t *testing.T) {
	spans := pipelineSpans(20 * streamBatch)
	got, want := &failOnWrite{ok: 2}, &failOnWrite{ok: 2}
	_, samples, err := pipelineStream(t, got, spans, 0, 0)
	_, werr := sequentialStream(t, want, spans, samples, 0, 0)
	if !errors.Is(err, errDiskFull) || !errors.Is(werr, errDiskFull) {
		t.Fatalf("Close = %v, sequential writer = %v, want the latched write error", err, werr)
	}
	if got.calls != 3 || want.calls != 3 {
		t.Fatalf("writer called %d times (sequential writer: %d), want 3: no write after the failed one", got.calls, want.calls)
	}
	if !bytes.Equal(got.buf.Bytes(), want.buf.Bytes()) {
		t.Fatalf("bytes written before the failure differ from the sequential writer's at byte %d",
			firstDiff(got.buf.Bytes(), want.buf.Bytes()))
	}

	// A second Close returns the same error and writes nothing.
	rec := &Recorder{}
	w := &failOnWrite{}
	st := NewStreamer(w, 0)
	rec.SetStream(st)
	for i := 0; i < 5000; i++ {
		rec.Span(Span{Track: "h0", Cat: CatCompute, Name: "compute", Start: float64(i), End: float64(i) + 1, Flops: 1e6})
		rec.Advance(float64(i))
	}
	rec.Sample("residual", "h0", 1, 0.5)
	if err := st.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want the latched write error", err)
	}
	if err := st.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("second Close = %v, want the latched write error", err)
	}
	if w.calls != 1 {
		t.Fatalf("writer called %d times, want exactly 1", w.calls)
	}
}

// TestStreamerCloseDrainsBuffer: events sit in the encoder's buffer until it
// fills, so a short run reaches the writer only at Close — whole.
func TestStreamerCloseDrainsBuffer(t *testing.T) {
	var out bytes.Buffer
	rec := &Recorder{}
	st := NewStreamer(&out, 0)
	rec.SetStream(st)
	rec.Span(Span{Track: "h0", Cat: CatCompute, Name: "c", Start: 0, End: 1})
	rec.Advance(2)
	if st.Flushed() != 1 {
		t.Fatalf("flushed %d spans, want 1", st.Flushed())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(out.Bytes()) || !bytes.HasSuffix(out.Bytes(), []byte("}\n")) {
		t.Fatalf("Close left an incomplete document: %q", out.Bytes())
	}
}

// TestObsExportAllocBudget pins the allocation economy of the export
// pipeline, whose per-event boxing and per-export span copies used to make a
// traced run allocate twice what the simulation did: steady-state streaming
// allocates at most once per 64 spans, a batch trace export allocates per
// track and not per span, the batch trace and windows together allocate less
// than an eighth of the spans they walk (no span is copied), a window row
// costs the cells it touches and not the windows between them, and a
// repeated Spans() is free.
func TestObsExportAllocBudget(t *testing.T) {
	tracks := make([]string, 32)
	for i := range tracks {
		tracks[i] = fmt.Sprintf("h%02d", i)
	}
	emit := func(rec *Recorder, i int) {
		tr := tracks[i%len(tracks)]
		t0 := float64(i / len(tracks))
		rec.Span(Span{Track: tr, Cat: CatCompute, Name: "compute", Start: t0, End: t0 + 0.5, Flops: 1e6})
		rec.Span(Span{Track: "net", Cat: CatNet, Name: "msg", Start: t0 + 0.5, End: t0 + 0.75, Seq: int64(i + 1),
			From: tr, To: tracks[(i+1)%len(tracks)], Link: "lan", Bytes: 4096, Tag: 3, Queue: 1e-7})
	}

	// Streaming: once every track has been seen and the ring, slab and
	// buffer have reached their working size, emitting costs nothing.
	rec := &Recorder{}
	st := NewStreamer(io.Discard, 0)
	rec.SetStream(st)
	n := 0
	for ; n < 4096; n++ {
		emit(rec, n)
		rec.Advance(float64(n/len(tracks)) - 2)
	}
	perBatch := testing.AllocsPerRun(50, func() {
		for k := 0; k < 32; k++ { // 64 spans
			emit(rec, n)
			rec.Advance(float64(n/len(tracks)) - 2)
			n++
		}
	})
	if perBatch > 1 {
		t.Errorf("steady-state streaming allocates %.1f objects per 64 spans, budget is 1", perBatch)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Batch: the same export over 16x the spans on the same tracks must not
	// allocate more — the count is a function of the track population.
	export := func(spans int) float64 {
		rec := &Recorder{}
		for i := 0; i < spans/2; i++ {
			emit(rec, i)
		}
		rec.Sample("residual", "h0", 1, 0.5)
		return testing.AllocsPerRun(5, func() {
			if err := WriteTraceJSON(io.Discard, rec); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := export(2048), export(32768)
	t.Logf("allocations: %.2f per 64 streamed spans; batch export %.0f for 2k spans, %.0f for 32k", perBatch, small, large)
	if budget := float64(len(tracks) + 32); small > budget || large > budget {
		t.Errorf("batch trace export allocates %.0f objects for 2k spans and %.0f for 32k, budget is %.0f for %d tracks",
			small, large, budget, len(tracks))
	}

	// Batch trace plus windows, the first export of a fresh recording (so
	// it pays for the index): a copy of the spans alone would cost eight
	// times the budget.
	var batch float64
	for run := 0; run < 3; run++ {
		rec = &Recorder{}
		for i := 0; i < 16384; i++ {
			emit(rec, i)
		}
		batch += allocBytes(1, func() {
			if err := WriteTraceJSON(io.Discard, rec); err != nil {
				t.Fatal(err)
			}
			ComputeWindows(rec, 16, 512, nil)
		}) / 3
	}
	spanBytes := float64(rec.NumSpans()) * float64(unsafe.Sizeof(Span{}))
	t.Logf("batch trace + windows over %d spans: %.0f bytes, %.3f of the spans' %.0f", rec.NumSpans(), batch, batch/spanBytes, spanBytes)
	if batch >= spanBytes/8 {
		t.Errorf("batch trace + windows over %d spans allocate %.0f bytes, budget is %.0f (an eighth of the spans)",
			rec.NumSpans(), batch, spanBytes/8)
	}

	// A link touched at windows 0 and 10⁶ holds two cells, as one touched at
	// windows 0 and 1 does: a row sized by its last window would take
	// megabytes.
	twoCells := func(w float64) float64 {
		return allocBytes(20, func() {
			a := NewWindowAccum(1)
			a.AddSpan(Span{Track: "net", Cat: CatNet, Name: "msg", Start: 0.5, End: 0.75, Link: "wan", Bytes: 1})
			a.AddSpan(Span{Track: "net", Cat: CatNet, Name: "msg", Start: w + 0.5, End: w + 0.75, Link: "wan", Bytes: 1})
			if wm := a.Finish(w+1, nil); len(wm.Links) != 2 || wm.Windows != int(w)+1 {
				t.Fatalf("%d link rows over %d windows, want 2 over %d", len(wm.Links), wm.Windows, int(w)+1)
			}
		})
	}
	near, far := twoCells(1), twoCells(1e6)
	t.Logf("two link cells: %.0f bytes at windows 0 and 1, %.0f at windows 0 and 1e6", near, far)
	if cells := float64(64 * unsafe.Sizeof(LinkWindow{})); far > cells {
		t.Errorf("a link touched at windows 0 and 1e6 allocates %.0f bytes (%.0f at windows 0 and 1), budget is %.0f",
			far, near, cells)
	}

	// The sorted view is built once per recording burst.
	rec = &Recorder{}
	for i := 0; i < 1000; i++ {
		emit(rec, i)
	}
	first := rec.Spans()
	if again := testing.AllocsPerRun(10, func() { rec.Spans() }); again != 0 {
		t.Errorf("a repeated Spans() allocates %.0f objects, want 0", again)
	}
	emit(rec, 1000)
	if got := rec.Spans(); len(got) != len(first)+2 {
		t.Errorf("Spans() after a new emission holds %d spans, want %d: the cached view was not dropped", len(got), len(first)+2)
	}
}

// allocBytes returns the heap bytes one call of f allocates, averaged over
// runs calls.
func allocBytes(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
