package obs

// The windowed accumulator and the critical-path walk as they were before the
// recorder exported through its sorted index: every (name, window) cell a
// heap row behind a string-keyed map, Finish sorting every row pointer, and
// a walk over the sorted copy Spans built by sorting (start, position) keys,
// regrouped into a per-track map of Span values. The code is kept verbatim,
// but for the float64 conversion of each product that the package's
// no-fusion rule adds (see splitHost), as the oracle TestWindowsMatchReference
// holds the production code to, row for row and bit for bit. Nothing outside
// this file uses it.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

type hostWinKey struct {
	track string
	w     int
}

type linkWinKey struct {
	link string
	w    int
}

type refWindowAccum struct {
	width    float64
	hosts    map[hostWinKey]*HostWindow
	links    map[linkWinKey]*LinkWindow
	series   map[seriesWinKey]*SeriesWindow
	lastKey  hostWinKey
	lastHost *HostWindow
}

func newRefWindowAccum(width float64) *refWindowAccum {
	if !(width > 0) {
		panic("obs: window width must be positive")
	}
	return &refWindowAccum{
		width:  width,
		hosts:  map[hostWinKey]*HostWindow{},
		links:  map[linkWinKey]*LinkWindow{},
		series: map[seriesWinKey]*SeriesWindow{},
	}
}

func (a *refWindowAccum) winOf(t float64) int {
	w := int(t / a.width)
	if w < 0 {
		w = 0
	}
	return w
}

func (a *refWindowAccum) hostAt(track string, w int) *HostWindow {
	k := hostWinKey{track, w}
	if a.lastHost != nil && a.lastKey == k {
		return a.lastHost
	}
	h := a.hosts[k]
	if h == nil {
		h = &HostWindow{Track: track, W: w}
		a.hosts[k] = h
	}
	a.lastKey, a.lastHost = k, h
	return h
}

func (a *refWindowAccum) AddSpan(s Span) {
	switch s.Cat {
	case CatCompute, CatSend, CatWait, CatSleep:
		a.splitHost(s, func(h *HostWindow, d, frac float64) {
			switch s.Cat {
			case CatCompute:
				h.Compute += d
			case CatSend:
				h.Send += d
			case CatWait:
				h.Wait += d
			case CatSleep:
				h.Sleep += d
			}
			h.Flops += float64(s.Flops * frac)
		})
	case CatRetry:
		track := strings.TrimPrefix(s.Track, "solver:")
		s.Track = track
		a.splitHost(s, func(h *HostWindow, d, _ float64) { h.Retries += d })
	case CatNet:
		w := a.winOf(s.Start)
		age := s.End - s.Start
		for rest := s.Link; rest != ""; {
			var link string
			link, rest, _ = strings.Cut(rest, "+")
			if link == "" {
				continue
			}
			k := linkWinKey{link, w}
			l := a.links[k]
			if l == nil {
				l = &LinkWindow{Link: link, W: w}
				a.links[k] = l
			}
			l.Bytes += float64(s.Bytes)
			l.Msgs++
			l.QueueDelay += s.Queue
			l.AgeSum += age
			if age > l.AgeMax {
				l.AgeMax = age
			}
		}
	}
}

func (a *refWindowAccum) splitHost(s Span, add func(h *HostWindow, d, frac float64)) {
	if s.End <= s.Start {
		add(a.hostAt(s.Track, a.winOf(s.Start)), 0, 1)
		return
	}
	total := s.End - s.Start
	for w := a.winOf(s.Start); ; w++ {
		lo := float64(float64(w) * a.width)
		hi := lo + a.width
		if lo < s.Start {
			lo = s.Start
		}
		if hi > s.End {
			hi = s.End
		}
		if d := hi - lo; d > 0 {
			add(a.hostAt(s.Track, w), d, d/total)
		}
		if hi >= s.End {
			return
		}
	}
}

func (a *refWindowAccum) AddSample(p SamplePoint) {
	k := seriesWinKey{p.Series, p.Track, a.winOf(p.T)}
	sw := a.series[k]
	if sw == nil {
		sw = &SeriesWindow{Series: p.Series, Track: p.Track, W: k.w,
			First: p.V, Min: p.V, Max: p.V}
		a.series[k] = sw
	}
	sw.Count++
	sw.Last = p.V
	if p.V < sw.Min {
		sw.Min = p.V
	}
	if p.V > sw.Max {
		sw.Max = p.V
	}
}

func (a *refWindowAccum) Finish(makespan float64, cp *CPReport) *WindowedMetrics {
	wm := &WindowedMetrics{Width: a.width, Makespan: makespan}
	if makespan > 0 {
		wm.Windows = int(math.Ceil(makespan / a.width))
	}
	for k := range a.hosts {
		if k.w >= wm.Windows {
			wm.Windows = k.w + 1
		}
	}
	for k := range a.links {
		if k.w >= wm.Windows {
			wm.Windows = k.w + 1
		}
	}
	covered := func(w int) float64 {
		c := makespan - float64(float64(w)*a.width)
		if c <= 0 || c > a.width {
			return a.width
		}
		return c
	}
	for _, h := range a.hosts {
		c := covered(h.W)
		h.Utilization = (h.Compute + h.Send) / c
		h.WaitShare = h.Wait / c
	}
	wm.Hosts = sortedRows(a.hosts, func(x, y *HostWindow) int {
		return cmp.Or(strings.Compare(x.Track, y.Track), cmp.Compare(x.W, y.W))
	})
	wm.Links = sortedRows(a.links, func(x, y *LinkWindow) int {
		return cmp.Or(strings.Compare(x.Link, y.Link), cmp.Compare(x.W, y.W))
	})
	wm.Series = sortedRows(a.series, func(x, y *SeriesWindow) int {
		return cmp.Or(strings.Compare(x.Series, y.Series), strings.Compare(x.Track, y.Track), cmp.Compare(x.W, y.W))
	})
	if cp != nil {
		wm.CritPath = cp.Windows(a.width)
	}
	return wm
}

// refSpans is Recorder.Spans as it was: 16-byte (start, position) keys
// sorted, then every span copied out.
func refSpans(r *Recorder) []Span {
	if len(r.spans) == 0 {
		return nil
	}
	type key struct {
		start float64
		pos   int32
	}
	at := func(pos int32) *Span { return &r.spans[pos/spanChunk][pos%spanChunk] }
	keys := make([]key, 0, r.nSpans)
	for c, chunk := range r.spans {
		for i := range chunk {
			keys = append(keys, key{chunk[i].Start, int32(c*spanChunk + i)})
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		if c := strings.Compare(at(a.pos).Track, at(b.pos).Track); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	sorted := make([]Span, len(keys))
	for i, k := range keys {
		sorted[i] = *at(k.pos)
	}
	return sorted
}

// refComputeWindows is ComputeWindows as it was: the sorted copy, then the
// sorted samples.
func refComputeWindows(r *Recorder, width, makespan float64, cp *CPReport) *WindowedMetrics {
	a := newRefWindowAccum(width)
	for _, s := range refSpans(r) {
		a.AddSpan(s)
	}
	for _, p := range r.Samples() {
		a.AddSample(p)
	}
	return a.Finish(makespan, cp)
}

func refCriticalPath(r *Recorder) *CPReport {
	byTrack := map[string][]Span{}
	transfers := map[int64]Span{}
	for _, s := range refSpans(r) {
		switch s.Cat {
		case CatCompute, CatSend, CatWait, CatSleep:
			byTrack[s.Track] = append(byTrack[s.Track], s)
		case CatNet:
			if s.Seq != 0 {
				transfers[s.Seq] = s
			}
		}
	}
	var track string
	t := -1.0
	for name, spans := range byTrack {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		byTrack[name] = spans
		last := spans[len(spans)-1]
		if last.End > t || (last.End == t && name < track) {
			t = last.End
			track = name
		}
	}
	if t < 0 {
		return nil
	}
	cp := &CPReport{Makespan: t}

	attr := func(seg CPSegment) {
		switch seg.Cat {
		case CatCompute:
			cp.Compute += seg.Dur()
		case CatSend, CatNet:
			cp.Network += seg.Dur()
		default:
			cp.Wait += seg.Dur()
		}
		cp.Segments = append(cp.Segments, seg)
	}

	for steps := 0; t > 0 && steps < 4*r.NumSpans()+64; steps++ {
		spans := byTrack[track]
		i := sort.Search(len(spans), func(i int) bool { return spans[i].Start >= t }) - 1
		if i < 0 {
			attr(CPSegment{Track: track, Cat: "idle", Name: "idle", Start: 0, End: t})
			t = 0
			break
		}
		s := spans[i]
		if s.End < t {
			attr(CPSegment{Track: track, Cat: "idle", Name: "idle", Start: s.End, End: t})
			t = s.End
			continue
		}
		name := s.Name
		if name == "" {
			name = s.Cat
		}
		if s.Cat == CatWait && s.Cause != 0 {
			if tr, ok := transfers[s.Cause]; ok && tr.Start < t {
				attr(CPSegment{Cat: CatNet, Name: tr.Name, Start: tr.Start, End: t, Iter: tr.Iter})
				t = tr.Start
				if tr.From != "" {
					track = tr.From
				}
				continue
			}
		}
		start := s.Start
		if start > t {
			start = t
		}
		attr(CPSegment{Track: track, Cat: s.Cat, Name: name, Start: start, End: t, Iter: s.Iter})
		t = start
	}
	if t > 0 {
		attr(CPSegment{Track: track, Cat: "idle", Name: "unattributed", Start: 0, End: t})
	}
	for i, j := 0, len(cp.Segments)-1; i < j; i, j = i+1, j-1 {
		cp.Segments[i], cp.Segments[j] = cp.Segments[j], cp.Segments[i]
	}
	return cp
}

// bitsDiff walks two values of the same type and names the first place where
// they differ, floats compared by their bits (so -0 and 0 differ and equal
// NaNs agree); "" when they are the same.
func bitsDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v (%#x) vs %v (%#x)", path, a.Float(), math.Float64bits(a.Float()), b.Float(), math.Float64bits(b.Float()))
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil %v vs nil %v", path, a.IsNil(), b.IsNil())
			}
			return ""
		}
		return bitsDiff(path, a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d rows (nil %v) vs %d rows (nil %v)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitsDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitsDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	default:
		if !a.Equal(b) {
			return fmt.Sprintf("%s: %v vs %v", path, a, b)
		}
	}
	return ""
}

// randomRecording records a random span population that holds what the
// windows and the walk must get right: zero-length spans (some on window
// boundaries), spans crossing many windows, "solver:" retry overlays,
// multi-hop and empty link segments, waits caused by transfers from other
// tracks, senders with no host span, and tracks that first appear late.
// Spans are recorded out of start order, with ties, so the index's tie
// breaks matter.
func randomRecording(rng *rand.Rand, width float64) *Recorder {
	nHosts := 1 + rng.Intn(12)
	horizon := width * float64(1+rng.Intn(60))
	host := func(i int) string { return fmt.Sprintf("h%d", i) }
	links := []string{"lan", "wan", "lan+wan", "a++b", "+lan+", "", "wan+lan+gw"}
	at := func() float64 {
		switch rng.Intn(4) {
		case 0: // on a window boundary
			return width * float64(rng.Intn(int(horizon/width)+1))
		case 1: // a tie with a recent instant
			return width * float64(rng.Intn(3))
		}
		return rng.Float64() * horizon
	}
	var spans []Span
	seq := int64(0)
	for i, n := 0, 20+rng.Intn(300); i < n; i++ {
		h := rng.Intn(nHosts)
		start := at()
		if h >= nHosts/2 && nHosts > 1 {
			// The upper half of the hosts appear late.
			start = horizon/2 + start/2
		}
		var dur float64
		switch rng.Intn(5) {
		case 0: // zero length
		case 1: // across many windows
			dur = width * (1 + 30*rng.Float64())
		default:
			dur = width * rng.Float64()
		}
		s := Span{Track: host(h), Start: start, End: start + dur, Iter: rng.Intn(5)}
		switch c := rng.Intn(8); c {
		case 0, 1:
			s.Cat, s.Name, s.Flops = CatCompute, "compute", float64(rng.Intn(1e6))*1.5
		case 2:
			s.Cat, s.Name = CatSend, "send"
		case 3:
			s.Cat, s.Name = CatSleep, ""
			if rng.Intn(3) == 0 {
				s.Flops = 3 // sleeps carry no work, but the windows still prorate it
			}
		case 4:
			s.Cat, s.Name = CatWait, "recv"
			if seq > 0 && rng.Intn(4) > 0 {
				s.Cause = 1 + rng.Int63n(seq+2) // some causes were never recorded
			}
		case 5:
			s.Cat, s.Track, s.Name = CatRetry, "solver:"+s.Track, "retry"
		case 6:
			seq++
			from := host(rng.Intn(nHosts + 2)) // two senders record no host span
			if rng.Intn(6) == 0 {
				from = ""
			}
			s = Span{Track: "net", Cat: CatNet, Name: "msg", Start: s.Start, End: s.End, From: from,
				To: host(h), Link: links[rng.Intn(len(links))], Bytes: int64(rng.Intn(1 << 16)),
				Queue: rng.Float64() * width, Seq: seq, Tag: rng.Intn(3)}
		default:
			s.Cat, s.Track, s.Name = CatIter, "solver:"+s.Track, "iter"
		}
		spans = append(spans, s)
	}
	rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	r := &Recorder{}
	for _, s := range spans {
		r.Span(s)
	}
	for i, n := 0, rng.Intn(20); i < n; i++ {
		r.Sample([]string{"residual", "diff"}[rng.Intn(2)], host(rng.Intn(nHosts)), rng.Float64()*horizon, rng.NormFloat64())
	}
	return r
}

// streamOrder returns the recorder's spans in the order a streamer flushes
// them: (End, Start, Track, per-track emission order).
func streamOrder(r *Recorder) []Span {
	type keyed struct {
		s   Span
		seq int
	}
	perTrack := map[string]int{}
	var ks []keyed
	for _, chunk := range r.spans {
		for _, s := range chunk {
			ks = append(ks, keyed{s, perTrack[s.Track]})
			perTrack[s.Track]++
		}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(a.s.End, b.s.End), cmp.Compare(a.s.Start, b.s.Start),
			strings.Compare(a.s.Track, b.s.Track), cmp.Compare(a.seq, b.seq))
	})
	out := make([]Span, len(ks))
	for i, k := range ks {
		out[i] = k.s
	}
	return out
}

// TestWindowsMatchReference: on random recordings, the per-name window rows
// and the index-walking critical path produce what the map-based accumulator
// and the walk over the sorted copy produced — the same rows in the same
// order, every float the same bits — fed in batch (start) order and in
// stream (end) order, down to a 1e-6 width.
func TestWindowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	widths := []float64{1e-6, 0.01, 0.05, 0.3, 1}
	for trial := 0; trial < 400; trial++ {
		width := widths[trial%len(widths)]
		r := randomRecording(rng, width)
		makespan := width * float64(rng.Intn(80)) * rng.Float64()

		if d := bitsDiff("spans", reflect.ValueOf(refSpans(r)), reflect.ValueOf(r.Spans())); d != "" {
			t.Fatalf("trial %d (width %g, %d spans): %s", trial, width, r.NumSpans(), d)
		}
		want, got := refCriticalPath(r), CriticalPath(r)
		if d := bitsDiff("critical path", reflect.ValueOf(want), reflect.ValueOf(got)); d != "" {
			t.Fatalf("trial %d (width %g, %d spans): %s", trial, width, r.NumSpans(), d)
		}
		wantW := refComputeWindows(r, width, makespan, want)
		gotW := ComputeWindows(r, width, makespan, got)
		if d := bitsDiff("batch windows", reflect.ValueOf(wantW), reflect.ValueOf(gotW)); d != "" {
			t.Fatalf("trial %d (width %g, %d spans): %s", trial, width, r.NumSpans(), d)
		}

		ref, acc := newRefWindowAccum(width), NewWindowAccum(width)
		for _, s := range streamOrder(r) {
			ref.AddSpan(s)
			acc.AddSpan(s)
		}
		for _, p := range r.Samples() {
			ref.AddSample(p)
			acc.AddSample(p)
		}
		if d := bitsDiff("streamed windows", reflect.ValueOf(ref.Finish(makespan, nil)), reflect.ValueOf(acc.Finish(makespan, nil))); d != "" {
			t.Fatalf("trial %d (width %g, %d spans): %s", trial, width, r.NumSpans(), d)
		}
	}
}
