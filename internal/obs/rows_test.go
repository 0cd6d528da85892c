package obs

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// The batch exports encode their record lists in chunks, shared with a
// helper goroutine when GOMAXPROCS allows (jsonWriter.rows). Their oracle is the
// sequential loops they replaced, kept here: every record appended to the
// document's own writer, drained by flushIfFull between records. A chunked
// export must hand its writer the same Write calls — same count, same
// lengths, same bytes — and fail with the same error after the same bytes.

// seqArray is the record loop of an indented list before chunking.
func seqArray(j *jsonWriter, depth int, key string, n int, row func(j *jsonWriter, i int)) {
	j.member(depth, key)
	j.b = append(j.b, '[')
	for i := 0; i < n && j.err == nil; i++ {
		if i > 0 {
			j.b = append(j.b, ',')
		}
		j.flushIfFull()
		j.nl(depth + 1)
		j.b = append(j.b, '{')
		row(j, i)
		j.nl(depth + 1)
		j.b = append(j.b, '}')
		j.check(key, i)
	}
	if n > 0 {
		j.nl(depth)
	}
	j.b = append(j.b, ']')
}

// seqTraceJSON is WriteTraceJSON with its span loop on the document writer.
func seqTraceJSON(w *callLog, r *Recorder) error {
	order := r.exportOrder()
	samples := r.Samples()
	var tids [pidMetrics + 1]map[string]int
	note := func(pid int, track string) {
		if tids[pid] == nil {
			tids[pid] = map[string]int{}
		}
		tids[pid][track] = 0
	}
	for _, pos := range order {
		s := r.at(pos)
		note(pidOf(s.Cat), s.Track)
	}
	var counter counterNamer
	for i := range samples {
		note(pidMetrics, counter.of(&samples[i]))
	}
	enc := newJSONWriter(w)
	for pid, set := range tids {
		if len(set) == 0 {
			continue
		}
		enc.meta("process_name", pid, 0, pidNames[pid])
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for i, n := range names {
			set[n] = i
			enc.meta("thread_name", pid, i, n)
		}
	}
	for _, pos := range order {
		s := r.at(pos)
		pid := pidOf(s.Cat)
		enc.span(s, pid, tids[pid][s.Track])
	}
	for i := range samples {
		name := counter.of(&samples[i])
		enc.counter(name, tids[pidMetrics][name], samples[i].T, samples[i].V)
	}
	return enc.finish()
}

// seqWindowsJSON is WindowedMetrics.WriteJSON over seqArray.
func seqWindowsJSON(w *callLog, wm *WindowedMetrics) error {
	j := newJSONWriter(w)
	j.b = append(j.b, '{')
	j.floatMember(1, "width", wm.Width)
	j.floatMember(1, "makespan", wm.Makespan)
	j.intMember(1, "windows", wm.Windows)
	j.check("windows", -1)
	if len(wm.Hosts) > 0 {
		seqArray(&j, 1, "hosts", len(wm.Hosts), func(j *jsonWriter, i int) {
			h := &wm.Hosts[i]
			j.strMember(3, "track", h.Track)
			j.intMember(3, "w", h.W)
			j.floatMember(3, "compute", h.Compute)
			j.floatMember(3, "send", h.Send)
			j.floatMember(3, "wait", h.Wait)
			j.floatMember(3, "sleep", h.Sleep)
			j.floatMember(3, "flops", h.Flops)
			if h.Retries != 0 {
				j.floatMember(3, "retries", h.Retries)
			}
			j.floatMember(3, "utilization", h.Utilization)
			j.floatMember(3, "wait_share", h.WaitShare)
		})
	}
	if len(wm.Links) > 0 {
		seqArray(&j, 1, "links", len(wm.Links), func(j *jsonWriter, i int) {
			l := &wm.Links[i]
			j.strMember(3, "link", l.Link)
			j.intMember(3, "w", l.W)
			j.floatMember(3, "bytes", l.Bytes)
			j.floatMember(3, "msgs", l.Msgs)
			j.floatMember(3, "queue_delay", l.QueueDelay)
			j.floatMember(3, "age_sum", l.AgeSum)
			j.floatMember(3, "age_max", l.AgeMax)
		})
	}
	if len(wm.Series) > 0 {
		seqArray(&j, 1, "series", len(wm.Series), func(j *jsonWriter, i int) {
			s := &wm.Series[i]
			j.strMember(3, "series", s.Series)
			j.strMember(3, "track", s.Track)
			j.intMember(3, "w", s.W)
			j.floatMember(3, "count", s.Count)
			j.floatMember(3, "first", s.First)
			j.floatMember(3, "last", s.Last)
			j.floatMember(3, "min", s.Min)
			j.floatMember(3, "max", s.Max)
		})
	}
	if len(wm.CritPath) > 0 {
		seqArray(&j, 1, "critpath", len(wm.CritPath), func(j *jsonWriter, i int) {
			c := &wm.CritPath[i]
			j.intMember(3, "w", c.W)
			j.floatMember(3, "compute", c.Compute)
			j.floatMember(3, "network", c.Network)
			j.floatMember(3, "wait", c.Wait)
		})
	}
	return j.end()
}

// seqMetricsJSON is Metrics.WriteJSON over seqArray.
func seqMetricsJSON(w *callLog, m *Metrics) error {
	j := newJSONWriter(w)
	list := func(j *jsonWriter, depth int, key string, n int, isNil bool, row func(j *jsonWriter, i int)) {
		if isNil {
			j.member(depth, key)
			j.raw("null")
			return
		}
		seqArray(j, depth, key, n, row)
	}
	j.b = append(j.b, '{')
	j.floatMember(1, "makespan", m.Makespan)
	j.check("metrics", -1)
	list(&j, 1, "hosts", len(m.Hosts), m.Hosts == nil, func(j *jsonWriter, i int) {
		h := &m.Hosts[i]
		j.strMember(3, "track", h.Track)
		j.floatMember(3, "compute", h.Compute)
		j.floatMember(3, "send", h.Send)
		j.floatMember(3, "wait", h.Wait)
		j.floatMember(3, "sleep", h.Sleep)
		j.floatMember(3, "idle", h.Idle)
		j.floatMember(3, "flops", h.Flops)
		j.floatMember(3, "utilization", h.Utilization)
	})
	list(&j, 1, "links", len(m.Links), m.Links == nil, func(j *jsonWriter, i int) {
		l := &m.Links[i]
		j.strMember(3, "link", l.Link)
		j.floatMember(3, "bytes", l.Bytes)
		j.floatMember(3, "msgs", l.Msgs)
		j.floatMember(3, "queue_delay", l.QueueDelay)
	})
	if t := m.Traffic; t != nil {
		j.member(1, "traffic")
		j.b = append(j.b, '{')
		j.floatMember(2, "intra_bytes", t.IntraBytes)
		j.floatMember(2, "inter_bytes", t.InterBytes)
		j.floatMember(2, "intra_msgs", t.IntraMsgs)
		j.floatMember(2, "inter_msgs", t.InterMsgs)
		j.nl(1)
		j.b = append(j.b, '}')
		j.check("traffic", -1)
	}
	list(&j, 1, "counters", len(m.Counters), m.Counters == nil, func(j *jsonWriter, i int) {
		c := &m.Counters[i]
		j.strMember(3, "Name", c.Name)
		j.strMember(3, "Track", c.Track)
		j.floatMember(3, "Value", c.Value)
	})
	list(&j, 1, "series", len(m.Series), m.Series == nil, func(j *jsonWriter, i int) {
		s := &m.Series[i]
		j.strMember(3, "series", s.Series)
		j.strMember(3, "track", s.Track)
		list(j, 3, "points", len(s.Points), s.Points == nil, func(j *jsonWriter, k int) {
			j.floatMember(5, "t", s.Points[k].T)
			j.floatMember(5, "v", s.Points[k].V)
		})
	})
	return j.end()
}

// errRefused is the error of a callLog's failing Write.
var errRefused = errors.New("write refused")

// callLog keeps what a document's writer received: the bytes and the length
// of every Write call. The failAt-th call (1-based; 0 for none) fails.
type callLog struct {
	bytes.Buffer
	calls  []int
	failAt int
}

func (w *callLog) Write(p []byte) (int, error) {
	w.calls = append(w.calls, len(p))
	if len(w.calls) == w.failAt {
		return 0, errRefused
	}
	return w.Buffer.Write(p)
}

// chunkDoc is one batch document with n records per list, and a way to
// make one of its records non-finite.
type chunkDoc struct {
	name   string
	build  func(n int) any
	spoil  func(doc any, k int)
	write  func(w *callLog, doc any) error
	oracle func(w *callLog, doc any) error
}

// chunkVal is a non-integral value that differs between records, so the
// number memo of every chunk writer both hits and misses.
func chunkVal(i, k int) float64 { return float64(i%37)*0.1 + float64(k) + 1e-3*float64(i%11) }

var chunkDocs = []chunkDoc{
	{
		name: "trace",
		build: func(n int) any {
			rec := &Recorder{}
			for _, s := range pipelineSpans(n) {
				rec.Span(s)
			}
			pipelineSamples(rec)
			return rec
		},
		spoil: func(doc any, k int) {
			r := doc.(*Recorder)
			r.at(r.exportOrder()[k]).Queue = math.NaN()
		},
		write:  func(w *callLog, doc any) error { return WriteTraceJSON(w, doc.(*Recorder)) },
		oracle: func(w *callLog, doc any) error { return seqTraceJSON(w, doc.(*Recorder)) },
	},
	{
		name: "windows",
		build: func(n int) any {
			wm := &WindowedMetrics{Width: 0.05, Makespan: 12.5, Windows: 250}
			for i := 0; i < n; i++ {
				wm.Hosts = append(wm.Hosts, HostWindow{Track: fmt.Sprintf("h%d", i%9), W: i, Compute: chunkVal(i, 1),
					Send: chunkVal(i, 2), Wait: chunkVal(i, 3), Flops: 1e6 * float64(i), Retries: float64(i % 3),
					Utilization: chunkVal(i, 0) / 4, WaitShare: chunkVal(i, 1) / 8})
				wm.Links = append(wm.Links, LinkWindow{Link: "a>b", W: i, Bytes: float64(64 * i), Msgs: float64(i),
					QueueDelay: chunkVal(i, 4) * 1e-7, AgeSum: chunkVal(i, 5), AgeMax: chunkVal(i, 6)})
				wm.Series = append(wm.Series, SeriesWindow{Series: "residual", Track: "h0", W: i, Count: 3,
					First: chunkVal(i, 7), Last: chunkVal(i, 8), Min: chunkVal(i, 0), Max: chunkVal(i, 9)})
				wm.CritPath = append(wm.CritPath, CPWindow{W: i, Compute: chunkVal(i, 2), Network: chunkVal(i, 3), Wait: chunkVal(i, 4)})
			}
			return wm
		},
		spoil:  func(doc any, k int) { doc.(*WindowedMetrics).Hosts[k].Wait = math.Inf(1) },
		write:  func(w *callLog, doc any) error { return doc.(*WindowedMetrics).WriteJSON(w) },
		oracle: func(w *callLog, doc any) error { return seqWindowsJSON(w, doc.(*WindowedMetrics)) },
	},
	{
		name: "metrics",
		build: func(n int) any {
			m := &Metrics{Makespan: 12.5, Traffic: &TrafficSplit{IntraBytes: 4096, InterBytes: 1.5, IntraMsgs: 3, InterMsgs: 1}}
			for i := 0; i < n; i++ {
				m.Hosts = append(m.Hosts, HostUtil{Track: fmt.Sprintf("h%d", i), Compute: chunkVal(i, 1), Send: chunkVal(i, 2),
					Wait: chunkVal(i, 3), Idle: chunkVal(i, 4), Flops: 1e6 * float64(i), Utilization: chunkVal(i, 0) / 4})
				m.Links = append(m.Links, LinkStat{Link: fmt.Sprintf("l%d", i), Bytes: float64(64 * i), Msgs: float64(i), QueueDelay: chunkVal(i, 5)})
				m.Counters = append(m.Counters, CounterTotal{Name: "retries", Track: fmt.Sprintf("h%d", i), Value: float64(i % 4)})
				// Every series row holds a list of its own, empty or null for some.
				s := Series{Series: "residual", Track: fmt.Sprintf("h%d", i)}
				for k := 0; k < i%6-1; k++ {
					s.Points = append(s.Points, SeriesPoint{T: chunkVal(i, k), V: chunkVal(k, i)})
				}
				if i%6 == 1 {
					s.Points = []SeriesPoint{}
				}
				m.Series = append(m.Series, s)
			}
			return m
		},
		// The last point of a nested list, a few flush points into the record.
		spoil: func(doc any, k int) {
			s := &doc.(*Metrics).Series[k]
			s.Points = append(s.Points, SeriesPoint{T: 1, V: 2}, SeriesPoint{T: 3, V: math.NaN()})
		},
		write:  func(w *callLog, doc any) error { return doc.(*Metrics).WriteJSON(w) },
		oracle: func(w *callLog, doc any) error { return seqMetricsJSON(w, doc.(*Metrics)) },
	},
}

// chunkCounts are the list lengths the differential test runs: no record,
// one, around one chunk, one past a full set of slots, and many chunks.
var chunkCounts = []int{0, 1, chunkRecs - 1, chunkRecs, chunkRecs + 1, chunkSlots*chunkRecs + 1, 23*chunkRecs + 5}

// sameExport runs the chunked export and its oracle into writers failing at
// call failAt and fails unless they received the same calls and the same
// bytes, and returned the same error. It also fails if the export leaves a
// goroutine behind.
func sameExport(t *testing.T, label string, d chunkDoc, doc any, failAt int) (calls int, err error) {
	t.Helper()
	got, want := &callLog{failAt: failAt}, &callLog{failAt: failAt}
	gerr := d.write(got, doc)
	werr := d.oracle(want, doc)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, sequential loop %v", label, gerr, werr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: %d bytes written, sequential loop %d, first difference at byte %d",
			label, got.Len(), want.Len(), firstDiff(got.Bytes(), want.Bytes()))
	}
	if !slices.Equal(got.calls, want.calls) {
		t.Fatalf("%s: Write lengths %v, sequential loop %v", label, got.calls, want.calls)
	}
	if n := obsGoroutines(0); n != 0 {
		t.Fatalf("%s: %d goroutines of the package left after the export", label, n)
	}
	return len(got.calls), gerr
}

// TestChunkedExportsMatchSequential holds the batch trace, windows.json and
// metrics.json to the sequential loops at both GOMAXPROCS 1 (the caller
// encodes every chunk) and 2 (a helper encodes every other one): for every
// list length, with a non-finite value in the first, a middle and the last
// chunk, and with a writer that fails its third Write.
func TestChunkedExportsMatchSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, d := range chunkDocs {
			for _, n := range chunkCounts {
				label := fmt.Sprintf("GOMAXPROCS %d, %s, %d records", procs, d.name, n)
				calls, err := sameExport(t, label, d, d.build(n), 0)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if n == chunkCounts[len(chunkCounts)-1] {
					if calls < 4 {
						t.Fatalf("%s: %d Write calls, the failure cases need more than 3", label, calls)
					}
					if _, err := sameExport(t, label+", third Write fails", d, d.build(n), 3); !errors.Is(err, errRefused) {
						t.Fatalf("%s, third Write fails: error %v", label, err)
					}
					for _, k := range []int{3, n / 2, n - 1} { // the first, a middle and the last chunk
						doc := d.build(n)
						d.spoil(doc, k)
						spoiled := fmt.Sprintf("%s, record %d not finite", label, k)
						if _, err := sameExport(t, spoiled, d, doc, 0); err == nil || !strings.Contains(err.Error(), "not a finite number") {
							t.Fatalf("%s: error %v", spoiled, err)
						}
					}
				}
			}
		}
	}
}

// TestExportOrderMatchesSort: the export index, its halves sorted side by
// side and merged from sortSplit spans on, is the permutation one
// slices.SortFunc gives — on recordings with tied starts, tied tracks, ±0
// and NaN starts, at sizes around the split.
func TestExportOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	starts := []float64{0, math.Copysign(0, -1), math.NaN(), 1, 1, 2.5, -3, math.Inf(1)}
	tracks := []string{"a", "b", "b", "net", ""}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	for _, n := range []int{1, sortSplit - 1, sortSplit, sortSplit + 1, 2*sortSplit + 3, 3*spanChunk + 17} {
		rec := &Recorder{}
		for i := 0; i < n; i++ {
			start := starts[rng.Intn(len(starts))]
			if rng.Intn(3) == 0 {
				start = float64(rng.Intn(40)) / 8
			}
			rec.Span(Span{Track: tracks[rng.Intn(len(tracks))], Cat: CatCompute, Start: start, End: start + 1})
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortFunc(want, func(a, b int32) int {
			sa, sb := rec.at(a), rec.at(b)
			if c := cmp.Compare(sa.Start, sb.Start); c != 0 {
				return c
			}
			if c := strings.Compare(sa.Track, sb.Track); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		if got := rec.exportOrder(); !slices.Equal(got, want) {
			t.Fatalf("%d spans: export order differs from slices.SortFunc's", n)
		}
	}
}

// obsGoroutines returns how many goroutines run code of this package, the
// tests' own goroutines aside, polling until there are at most want or two
// seconds have passed: goroutines left exiting by an earlier test do not
// count once they are gone, and any other goroutine of the process never
// counts.
func obsGoroutines(want int) int {
	count := func() int {
		buf := make([]byte, 1<<16)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		c := 0
		for _, s := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(s, "repro/internal/obs.") && !strings.Contains(s, "testing.tRunner(") {
				c++
			}
		}
		return c
	}
	n := count()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = count() {
		time.Sleep(time.Millisecond)
	}
	return n
}
