package obs

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// HostWindow is one host track's budget inside one fixed-width virtual-time
// window: the tiling span categories split at window boundaries, plus the
// derived busy share and wait share of the covered window width.
type HostWindow struct {
	// Track is the process name.
	Track string `json:"track"`
	// W is the window index (window w covers [w*width, (w+1)*width)).
	W int `json:"w"`
	// Compute is the charged compute time falling inside the window.
	Compute float64 `json:"compute"`
	// Send is the sender-side occupancy falling inside the window.
	Send float64 `json:"send"`
	// Wait is the blocked-receive time falling inside the window.
	Wait float64 `json:"wait"`
	// Sleep is the sleep/backoff time falling inside the window.
	Sleep float64 `json:"sleep"`
	// Flops is the arithmetic work prorated onto the window by time overlap.
	Flops float64 `json:"flops"`
	// Retries is the retransmission-backoff time of the host's solver overlay
	// falling inside the window (fault pressure signal).
	Retries float64 `json:"retries,omitempty"`
	// Utilization is (Compute+Send) divided by the covered window width.
	Utilization float64 `json:"utilization"`
	// WaitShare is Wait divided by the covered window width.
	WaitShare float64 `json:"wait_share"`
}

// LinkWindow is one link's traffic inside one window. A message is attributed
// whole to the window its wire transfer starts in; multi-hop routes charge
// every constituent link, mirroring the aggregate per-link counters.
type LinkWindow struct {
	// Link is the link name.
	Link string `json:"link"`
	// W is the window index.
	W int `json:"w"`
	// Bytes is the wire bytes of transfers starting in the window.
	Bytes float64 `json:"bytes"`
	// Msgs is the number of transfers starting in the window.
	Msgs float64 `json:"msgs"`
	// QueueDelay is the accumulated queueing delay of those transfers.
	QueueDelay float64 `json:"queue_delay"`
	// AgeSum is the summed flight time (wire start to arrival) of those
	// transfers — the staleness age the receiver observes.
	AgeSum float64 `json:"age_sum"`
	// AgeMax is the largest single flight time among them.
	AgeMax float64 `json:"age_max"`
}

// SeriesWindow summarizes one metric series on one track inside one window
// (e.g. per-window residual progress from the stoppers).
type SeriesWindow struct {
	// Series is the metric name.
	Series string `json:"series"`
	// Track is the emitting rank or resource.
	Track string `json:"track"`
	// W is the window index.
	W int `json:"w"`
	// Count is the number of observations in the window.
	Count float64 `json:"count"`
	// First is the earliest observation in the window.
	First float64 `json:"first"`
	// Last is the latest observation in the window.
	Last float64 `json:"last"`
	// Min is the smallest observation in the window.
	Min float64 `json:"min"`
	// Max is the largest observation in the window.
	Max float64 `json:"max"`
}

// CPWindow is the critical-path attribution of one window: the slice of the
// backward walk's segments that falls inside it, split into the three
// makespan buckets.
type CPWindow struct {
	// W is the window index.
	W int `json:"w"`
	// Compute is critical-path compute time inside the window.
	Compute float64 `json:"compute"`
	// Network is critical-path network time inside the window.
	Network float64 `json:"network"`
	// Wait is critical-path wait/idle time inside the window.
	Wait float64 `json:"wait"`
}

// WindowedMetrics is the rolling view of a recorded run: fixed-width
// virtual-time windows with per-host utilization and wait share, per-link
// traffic and staleness age, per-window series summaries and (when a
// critical-path report is supplied) per-window critical-path attribution.
// All row lists are sorted, so the JSON and CSV exports are deterministic —
// byte-identical for any worker or lane count.
type WindowedMetrics struct {
	// Width is the window width in virtual seconds.
	Width float64 `json:"width"`
	// Makespan is the run's end-to-end virtual time.
	Makespan float64 `json:"makespan"`
	// Windows is the number of windows covering the makespan.
	Windows int `json:"windows"`
	// Hosts holds per-host window rows sorted by (track, window).
	Hosts []HostWindow `json:"hosts,omitempty"`
	// Links holds per-link window rows sorted by (link, window).
	Links []LinkWindow `json:"links,omitempty"`
	// Series holds per-series window rows sorted by (series, track, window).
	Series []SeriesWindow `json:"series,omitempty"`
	// CritPath holds per-window critical-path rows sorted by window.
	CritPath []CPWindow `json:"critpath,omitempty"`
}

type seriesWinKey struct {
	series, track string
	w             int
}

// WindowAccum accumulates spans and samples into fixed-width virtual-time
// windows. It is the shared engine behind ComputeWindows (batch, fed from the
// recorder's export order after the run) and the streaming trace mode (fed
// span-by-span at flush time, so windowed metrics survive even though the
// spans themselves are not retained). Feeding order is deterministic in both
// modes, so the float accumulation — and therefore the export bytes — is too.
// No row grows past maxWindows windows; Exporting.Finish reports a run that
// needs more.
type WindowAccum struct {
	width float64
	// Host and link names are interned: ids maps a name to its index in
	// names, which is its row in hosts and links.
	ids    map[string]int32
	names  []string
	hosts  cellRows[hostCols]
	links  cellRows[linkCols]
	series map[seriesWinKey]*SeriesWindow
	// lastTrack/lastID short-circuit the name lookup for runs of host spans
	// on one track, which dominate both feeds.
	lastTrack string
	lastID    int32
}

// hostCols are the columns a host cell accumulates; Finish adds the name,
// the window and the derived shares.
type hostCols struct {
	compute, send, wait, sleep, flops, retries float64
}

// linkCols are the columns a link cell accumulates.
type linkCols struct {
	bytes, msgs, queueDelay, ageSum, ageMax float64
}

// cellRows keeps one row per interned name: the cells of the windows the
// name touched, linked from its last window backward. The feeds mostly touch
// a row's last window or the one past it, so a lookup rarely walks further
// than the tail, and memory follows the cells touched, not windows × names.
// Cells are carved from chunks that grow with the population and never move.
type cellRows[T any] struct {
	tail  []*cell[T] // per row: its last cell (nil while empty)
	n     []int32    // per row: its cell count
	free  []cell[T]  // what is left of the current chunk
	cells int        // cells handed out, which sizes the next chunk
	// full is set once a cell of window maxWindows or later was asked for;
	// from then on no row grows.
	full bool
}

// maxWindows is the most windows a run may be folded into, about 64 MB of
// cells for a row that touches them all. A finer width would grow the rows
// without bound (a 1e-9 s window over a 0.1 s run asks for 10^8 cells per
// host), so the rows stop growing there and Exporting.Finish fails the
// export.
const maxWindows = 1 << 20

// cell is one (name, window) cell of a row.
type cell[T any] struct {
	w    int
	prev *cell[T] // the row's previous cell, in window order
	v    T
}

// grow adds an empty row.
func (r *cellRows[T]) grow() {
	r.tail = append(r.tail, nil)
	r.n = append(r.n, 0)
}

// lastW returns the window of row id's last cell (-1 for an empty row).
func (r *cellRows[T]) lastW(id int) int {
	if c := r.tail[id]; c != nil {
		return c.w
	}
	return -1
}

// at returns (inserting on demand) the columns of window w in row id, or nil
// when the cell would be new and w is past maxWindows or the rows are full.
func (r *cellRows[T]) at(id int32, w int) *T {
	var next *cell[T]
	c := r.tail[id]
	for c != nil && c.w > w {
		next, c = c, c.prev
	}
	if c != nil && c.w == w {
		return &c.v
	}
	if w >= maxWindows || r.full {
		r.full = true
		return nil
	}
	if len(r.free) == 0 {
		r.free = make([]cell[T], min(max(r.cells, 8), 1024))
	}
	nc := &r.free[0]
	r.free = r.free[1:]
	r.cells++
	nc.w, nc.prev = w, c
	if next == nil {
		r.tail[id] = nc
	} else {
		next.prev = nc
	}
	r.n[id]++
	return &nc.v
}

// NewWindowAccum returns an accumulator for windows of the given width.
// Panics on a non-positive width.
func NewWindowAccum(width float64) *WindowAccum {
	if !(width > 0) {
		panic("obs: window width must be positive")
	}
	return &WindowAccum{
		width:  width,
		ids:    map[string]int32{},
		series: map[seriesWinKey]*SeriesWindow{},
		lastID: -1,
	}
}

// winOf returns the window index containing virtual time t, maxWindows for
// any later one (whose index may not fit an int).
func (a *WindowAccum) winOf(t float64) int {
	q := t / a.width
	if q >= maxWindows {
		return maxWindows
	}
	return max(int(q), 0)
}

// overflow reports whether the run folded into a needs more than maxWindows
// windows: a row stopped growing, or the makespan reaches past the last one.
func (a *WindowAccum) overflow(makespan float64) bool {
	return a.hosts.full || a.links.full || makespan/a.width > maxWindows
}

// intern returns the row of a host or link name, adding it on first sight.
func (a *WindowAccum) intern(name string) int32 {
	id, ok := a.ids[name]
	if !ok {
		id = int32(len(a.names))
		a.ids[name] = id
		a.names = append(a.names, name)
		a.hosts.grow()
		a.links.grow()
	}
	return id
}

// AddSpan folds one span into the windows. Host-level tiling categories are
// split at window boundaries, with flops prorated by time overlap; retry
// spans on "solver:" overlays are split the same way onto the underlying
// host's retry column; net spans are attributed whole to the window their
// wire transfer starts in; other solver overlays and marks are ignored.
func (a *WindowAccum) AddSpan(s Span) {
	switch s.Cat {
	case CatCompute, CatSend, CatWait, CatSleep:
		a.splitHost(&s, s.Track)
	case CatRetry:
		a.splitHost(&s, strings.TrimPrefix(s.Track, "solver:"))
	case CatNet:
		w := a.winOf(s.Start)
		age := s.End - s.Start
		for rest := s.Link; rest != ""; {
			var link string
			link, rest, _ = strings.Cut(rest, "+")
			if link == "" {
				continue
			}
			l := a.links.at(a.intern(link), w)
			if l == nil {
				continue
			}
			l.bytes += float64(s.Bytes)
			l.msgs++
			l.queueDelay += s.Queue
			l.ageSum += age
			if age > l.ageMax {
				l.ageMax = age
			}
		}
	}
}

// splitHost distributes a span's [Start, End) interval over the windows it
// overlaps on the given host track, adding to each window's cell the overlap
// duration and that fraction of the span's flops. Zero-length spans land
// whole in their instant's window.
func (a *WindowAccum) splitHost(s *Span, track string) {
	if a.lastID < 0 || track != a.lastTrack {
		a.lastTrack, a.lastID = track, a.intern(track)
	}
	id := a.lastID
	if s.End <= s.Start {
		if h := a.hosts.at(id, a.winOf(s.Start)); h != nil {
			addHost(h, s, 0, 1)
		}
		return
	}
	total := s.End - s.Start
	for w := a.winOf(s.Start); ; w++ {
		lo := float64(float64(w) * a.width)
		hi := lo + a.width
		if lo < s.Start {
			lo = s.Start
		}
		if hi > s.End || w == maxWindows { // the cap's window takes the rest, which at refuses
			hi = s.End
		}
		if d := hi - lo; d > 0 {
			h := a.hosts.at(id, w)
			if h == nil {
				return
			}
			addHost(h, s, d, d/total)
		}
		if hi >= s.End {
			return
		}
	}
}

// addHost adds d seconds of a span to its category's column of a host cell,
// and frac of its flops unless it is a retry overlay.
func addHost(h *hostCols, s *Span, d, frac float64) {
	switch s.Cat {
	case CatCompute:
		h.compute += d
	case CatSend:
		h.send += d
	case CatWait:
		h.wait += d
	case CatSleep:
		h.sleep += d
	case CatRetry:
		h.retries += d
		return
	}
	h.flops += float64(s.Flops * frac)
}

// AddSample folds one metric observation into its window's series summary.
func (a *WindowAccum) AddSample(p SamplePoint) {
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

// Finish derives the windowed view: window count from the makespan, per-row
// utilization and wait share against the covered window width (the final
// window may be partial), sorted row lists, and — when cp is non-nil — the
// per-window critical-path attribution.
func (a *WindowAccum) Finish(makespan float64, cp *CPReport) *WindowedMetrics {
	wm := &WindowedMetrics{Width: a.width, Makespan: makespan}
	if makespan > 0 {
		wm.Windows = int(math.Ceil(makespan / a.width))
	}
	var nh, nl int
	for id := range a.names {
		nh += int(a.hosts.n[id])
		nl += int(a.links.n[id])
		wm.Windows = max(wm.Windows, a.hosts.lastW(id)+1, a.links.lastW(id)+1)
	}
	covered := func(w int) float64 {
		c := makespan - float64(float64(w)*a.width)
		if c <= 0 || c > a.width {
			return a.width
		}
		return c
	}
	byName := make([]int32, len(a.names))
	for i := range byName {
		byName[i] = int32(i)
	}
	slices.SortFunc(byName, func(x, y int32) int { return strings.Compare(a.names[x], a.names[y]) })
	if nh > 0 {
		wm.Hosts = make([]HostWindow, nh)
	}
	if nl > 0 {
		wm.Links = make([]LinkWindow, nl)
	}
	// Each row is written back to front into its slot of the output.
	nh, nl = 0, 0
	for _, id := range byName {
		name := a.names[id]
		nh += int(a.hosts.n[id])
		for c, k := a.hosts.tail[id], nh; c != nil; c = c.prev {
			k--
			v, cov := &c.v, covered(c.w)
			wm.Hosts[k] = HostWindow{Track: name, W: c.w, Compute: v.compute, Send: v.send, Wait: v.wait,
				Sleep: v.sleep, Flops: v.flops, Retries: v.retries,
				Utilization: (v.compute + v.send) / cov, WaitShare: v.wait / cov}
		}
		nl += int(a.links.n[id])
		for c, k := a.links.tail[id], nl; c != nil; c = c.prev {
			k--
			v := &c.v
			wm.Links[k] = LinkWindow{Link: name, W: c.w, Bytes: v.bytes, Msgs: v.msgs,
				QueueDelay: v.queueDelay, AgeSum: v.ageSum, AgeMax: v.ageMax}
		}
	}
	wm.Series = sortedRows(a.series, func(x, y *SeriesWindow) int {
		return cmp.Or(strings.Compare(x.Series, y.Series), strings.Compare(x.Track, y.Track), cmp.Compare(x.W, y.W))
	})
	if cp != nil {
		wm.CritPath = cp.Windows(a.width)
	}
	return wm
}

// ComputeWindows aggregates a recorder into windowed metrics: spans are fed
// in the deterministic (Start, Track, emission index) export order, samples
// in the (Series, Track, T, index) order, so the result is byte-identical
// for any worker or lane count. cp may be nil to skip the per-window
// critical-path attribution.
func ComputeWindows(r *Recorder, width, makespan float64, cp *CPReport) *WindowedMetrics {
	f := spanFold{windows: NewWindowAccum(width)}
	f.feed(r)
	return f.windows.Finish(makespan, cp)
}

// Windows splits the critical-path segments at window boundaries and sums
// each window's share into the three makespan buckets. Only windows the path
// touches produce rows.
func (cp *CPReport) Windows(width float64) []CPWindow {
	if !(width > 0) {
		panic("obs: window width must be positive")
	}
	rows := map[int]*CPWindow{}
	for _, seg := range cp.Segments {
		for w := int(seg.Start / width); ; w++ {
			lo := float64(float64(w) * width)
			hi := lo + width
			if lo < seg.Start {
				lo = seg.Start
			}
			if hi > seg.End {
				hi = seg.End
			}
			d := hi - lo
			if d > 0 || (seg.Start == seg.End && w == int(seg.Start/width)) {
				r := rows[w]
				if r == nil {
					r = &CPWindow{W: w}
					rows[w] = r
				}
				switch seg.Cat {
				case CatCompute:
					r.Compute += d
				case CatSend, CatNet:
					r.Network += d
				default:
					r.Wait += d
				}
			}
			if hi >= seg.End {
				break
			}
		}
	}
	return sortedRows(rows, func(x, y *CPWindow) int { return cmp.Compare(x.W, y.W) })
}

// sortedRows flattens a map of accumulated rows into a slice ordered by
// order (nil for an empty map). The row pointers are sorted and the rows
// copied once into place, instead of swapping the rows themselves.
func sortedRows[K comparable, T any](rows map[K]*T, order func(x, y *T) int) []T {
	if len(rows) == 0 {
		return nil
	}
	ptrs := make([]*T, 0, len(rows))
	for _, r := range rows {
		ptrs = append(ptrs, r)
	}
	slices.SortFunc(ptrs, order)
	out := make([]T, len(ptrs))
	for i, r := range ptrs {
		out[i] = *r
	}
	return out
}

// WriteJSON writes the windowed metrics as indented JSON, deterministic
// because every member is written in declaration order and the row lists are
// sorted. The bytes are those json.Encoder with a two-space indent gives for
// the struct tags above; empty row lists are left out.
func (wm *WindowedMetrics) WriteJSON(w io.Writer) error {
	j := newJSONWriter(w)
	j.b = append(j.b, '{')
	j.floatMember(1, "width", wm.Width)
	j.floatMember(1, "makespan", wm.Makespan)
	j.intMember(1, "windows", wm.Windows)
	j.check("windows", -1)
	if len(wm.Hosts) > 0 {
		j.array(1, "hosts", len(wm.Hosts), func(j *jsonWriter, i int) {
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
		j.array(1, "links", len(wm.Links), func(j *jsonWriter, i int) {
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
		j.array(1, "series", len(wm.Series), func(j *jsonWriter, i int) {
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
		j.array(1, "critpath", len(wm.CritPath), func(j *jsonWriter, i int) {
			c := &wm.CritPath[i]
			j.intMember(3, "w", c.W)
			j.floatMember(3, "compute", c.Compute)
			j.floatMember(3, "network", c.Network)
			j.floatMember(3, "wait", c.Wait)
		})
	}
	return j.end()
}

// WriteCSV writes the windowed metrics in long form: one row per (table,
// key, window, field) with %g values, mirroring Metrics.WriteCSV.
func (wm *WindowedMetrics) WriteCSV(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "table,key,w,field,value\n")
	fmt.Fprintf(&b, "run,,,width,%g\n", wm.Width)
	fmt.Fprintf(&b, "run,,,makespan,%g\n", wm.Makespan)
	fmt.Fprintf(&b, "run,,,windows,%d\n", wm.Windows)
	for _, h := range wm.Hosts {
		fmt.Fprintf(&b, "hostw,%s,%d,compute,%g\n", h.Track, h.W, h.Compute)
		fmt.Fprintf(&b, "hostw,%s,%d,send,%g\n", h.Track, h.W, h.Send)
		fmt.Fprintf(&b, "hostw,%s,%d,wait,%g\n", h.Track, h.W, h.Wait)
		fmt.Fprintf(&b, "hostw,%s,%d,sleep,%g\n", h.Track, h.W, h.Sleep)
		fmt.Fprintf(&b, "hostw,%s,%d,flops,%g\n", h.Track, h.W, h.Flops)
		if h.Retries != 0 {
			fmt.Fprintf(&b, "hostw,%s,%d,retries,%g\n", h.Track, h.W, h.Retries)
		}
		fmt.Fprintf(&b, "hostw,%s,%d,utilization,%g\n", h.Track, h.W, h.Utilization)
		fmt.Fprintf(&b, "hostw,%s,%d,wait_share,%g\n", h.Track, h.W, h.WaitShare)
	}
	for _, l := range wm.Links {
		fmt.Fprintf(&b, "linkw,%s,%d,bytes,%g\n", l.Link, l.W, l.Bytes)
		fmt.Fprintf(&b, "linkw,%s,%d,msgs,%g\n", l.Link, l.W, l.Msgs)
		fmt.Fprintf(&b, "linkw,%s,%d,queue_delay,%g\n", l.Link, l.W, l.QueueDelay)
		fmt.Fprintf(&b, "linkw,%s,%d,age_sum,%g\n", l.Link, l.W, l.AgeSum)
		fmt.Fprintf(&b, "linkw,%s,%d,age_max,%g\n", l.Link, l.W, l.AgeMax)
	}
	for _, s := range wm.Series {
		key := s.Series + ":" + s.Track
		fmt.Fprintf(&b, "seriesw,%s,%d,count,%g\n", key, s.W, s.Count)
		fmt.Fprintf(&b, "seriesw,%s,%d,first,%g\n", key, s.W, s.First)
		fmt.Fprintf(&b, "seriesw,%s,%d,last,%g\n", key, s.W, s.Last)
		fmt.Fprintf(&b, "seriesw,%s,%d,min,%g\n", key, s.W, s.Min)
		fmt.Fprintf(&b, "seriesw,%s,%d,max,%g\n", key, s.W, s.Max)
	}
	for _, c := range wm.CritPath {
		fmt.Fprintf(&b, "cpw,,%d,compute,%g\n", c.W, c.Compute)
		fmt.Fprintf(&b, "cpw,,%d,network,%g\n", c.W, c.Network)
		fmt.Fprintf(&b, "cpw,,%d,wait,%g\n", c.W, c.Wait)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Fprint writes a compact per-window summary: mean host utilization and wait
// share, total per-hop link bytes and messages, and — when present — the
// window's critical-path split. At most maxRows windows are printed.
func (wm *WindowedMetrics) Fprint(w io.Writer, maxRows int) {
	fmt.Fprintf(w, "windowed telemetry: width %gs, %d windows, makespan %.6fs\n",
		wm.Width, wm.Windows, wm.Makespan)
	// An adaptive run marks every applied resplit with a "resplit" sample
	// (value = the transition's max band delta); which windows the
	// controller acted in is exactly what a summary should localize, so the
	// markers get their own row ahead of the window table.
	var marks []string
	for i := range wm.Series {
		s := &wm.Series[i]
		if s.Series != "resplit" {
			continue
		}
		m := fmt.Sprintf("w%d", s.W)
		if s.Count > 1 {
			m += fmt.Sprintf(" ×%g", s.Count)
		}
		m += fmt.Sprintf(" (max band delta %g)", s.Max)
		marks = append(marks, m)
	}
	if len(marks) > 0 {
		fmt.Fprintf(w, "  resplit markers: %s\n", strings.Join(marks, ", "))
	}
	type agg struct {
		util, wait  float64
		hosts       int
		bytes, msgs float64
		cp          *CPWindow
	}
	rows := map[int]*agg{}
	at := func(wi int) *agg {
		r := rows[wi]
		if r == nil {
			r = &agg{}
			rows[wi] = r
		}
		return r
	}
	for i := range wm.Hosts {
		h := &wm.Hosts[i]
		r := at(h.W)
		r.util += h.Utilization
		r.wait += h.WaitShare
		r.hosts++
	}
	for i := range wm.Links {
		l := &wm.Links[i]
		r := at(l.W)
		r.bytes += l.Bytes
		r.msgs += l.Msgs
	}
	for i := range wm.CritPath {
		at(wm.CritPath[i].W).cp = &wm.CritPath[i]
	}
	printed := 0
	for wi := 0; wi < wm.Windows && printed < maxRows; wi++ {
		r := rows[wi]
		if r == nil {
			continue
		}
		util, wait := 0.0, 0.0
		if r.hosts > 0 {
			util = r.util / float64(r.hosts)
			wait = r.wait / float64(r.hosts)
		}
		fmt.Fprintf(w, "  w%-3d [%g, %g) util %.3f wait %.3f bytes %.0f msgs %.0f",
			wi, float64(wi)*wm.Width, float64(wi+1)*wm.Width, util, wait, r.bytes, r.msgs)
		if r.cp != nil {
			fmt.Fprintf(w, "  cp: comp %.4f net %.4f wait %.4f", r.cp.Compute, r.cp.Network, r.cp.Wait)
		}
		fmt.Fprintln(w)
		printed++
	}
	if printed < len(rows) {
		fmt.Fprintf(w, "  ... %d more windows\n", len(rows)-printed)
	}
}
