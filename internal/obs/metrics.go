package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// HostUtil is the virtual-time budget of one process track over a run:
// where its makespan went, split by span category, plus the derived
// utilization (busy share of the makespan).
type HostUtil struct {
	// Track is the process name.
	Track string `json:"track"`
	// Compute is the virtual time spent in charged compute segments.
	Compute float64 `json:"compute"`
	// Send is the sender-side virtual time spent queueing and pushing.
	Send float64 `json:"send"`
	// Wait is the virtual time spent blocked in receives.
	Wait float64 `json:"wait"`
	// Sleep is the virtual time spent in explicit sleeps (incl. backoff).
	Sleep float64 `json:"sleep"`
	// Idle is the uncovered remainder of the makespan.
	Idle float64 `json:"idle"`
	// Flops is the total arithmetic work charged on the track.
	Flops float64 `json:"flops"`
	// Utilization is (Compute+Send)/makespan — the busy share.
	Utilization float64 `json:"utilization"`
}

// LinkStat aggregates one link's traffic over a run.
type LinkStat struct {
	// Link is the link name.
	Link string `json:"link"`
	// Bytes is the total wire bytes pushed through the link.
	Bytes float64 `json:"bytes"`
	// Msgs is the number of messages routed over the link.
	Msgs float64 `json:"msgs"`
	// QueueDelay is the accumulated queueing delay behind earlier transfers.
	QueueDelay float64 `json:"queue_delay"`
}

// SeriesPoint is one (virtual time, value) observation of a series.
type SeriesPoint struct {
	// T is the virtual time of the observation.
	T float64 `json:"t"`
	// V is the observed value.
	V float64 `json:"v"`
}

// Series is one metric time series on one track (e.g. rank 3's residual).
type Series struct {
	// Series is the metric name.
	Series string `json:"series"`
	// Track is the emitting rank or resource.
	Track string `json:"track"`
	// Points are the observations in virtual-time order.
	Points []SeriesPoint `json:"points"`
}

// TrafficSplit aggregates the run's wire traffic by cluster locality:
// messages that stayed inside the sender's cluster versus messages that
// crossed a cluster boundary (the WAN traffic the topology-aware plans try
// to minimize). On a flat platform everything is intra-cluster.
type TrafficSplit struct {
	// IntraBytes is the wire bytes that stayed inside a cluster.
	IntraBytes float64 `json:"intra_bytes"`
	// InterBytes is the wire bytes that crossed a cluster boundary.
	InterBytes float64 `json:"inter_bytes"`
	// IntraMsgs is the message count that stayed inside a cluster.
	IntraMsgs float64 `json:"intra_msgs"`
	// InterMsgs is the message count that crossed a cluster boundary.
	InterMsgs float64 `json:"inter_msgs"`
}

// Metrics is the aggregate view of a recorded run: per-host utilization,
// per-link traffic, counter totals and convergence series.
type Metrics struct {
	// Makespan is the run's end-to-end virtual time.
	Makespan float64 `json:"makespan"`
	// Hosts holds per-process utilization rows sorted by track name.
	Hosts []HostUtil `json:"hosts"`
	// Links holds per-link traffic rows sorted by link name.
	Links []LinkStat `json:"links"`
	// Traffic is the intra- vs inter-cluster traffic split (nil when the run
	// emitted no cluster counters).
	Traffic *TrafficSplit `json:"traffic,omitempty"`
	// Counters holds the remaining accumulator totals (retries, faults, ...).
	Counters []CounterTotal `json:"counters"`
	// Series holds the convergence/metric time series.
	Series []Series `json:"series"`
}

// Link-stat counter names emitted by the simulator; spanFold.metrics folds
// these into Metrics.Links instead of the generic Counters list.
const (
	// CntLinkBytes accumulates wire bytes per link.
	CntLinkBytes = "link_bytes"
	// CntLinkMsgs accumulates routed messages per link.
	CntLinkMsgs = "link_msgs"
	// CntLinkQueue accumulates queueing delay per link.
	CntLinkQueue = "link_queue"
)

// Cluster-traffic counter names emitted by the simulator, with track "intra"
// or "inter"; spanFold.metrics folds these into Metrics.Traffic.
const (
	// CntClusterBytes accumulates wire bytes per traffic class.
	CntClusterBytes = "cluster_bytes"
	// CntClusterMsgs accumulates messages per traffic class.
	CntClusterMsgs = "cluster_msgs"
)

// spanFold is the one consumer of a run's spans behind the aggregate and the
// windowed metrics: the batch exports feed it the recorder's spans in export
// order after the run, the streamer every span it flushes. The host-level
// spans of one track reach both feeds in the track's program order, so the
// float sums — and the export bytes — do not depend on the feed.
type spanFold struct {
	hosts   map[string]*HostUtil // per-track budgets (nil: no Metrics wanted)
	windows *WindowAccum         // nil: no WindowedMetrics wanted
}

// add folds one span. Only the tiling host-level categories enter the host
// budgets, not net spans and solver overlays.
func (f *spanFold) add(s *Span) {
	if f.windows != nil {
		f.windows.AddSpan(*s)
	}
	if f.hosts == nil {
		return
	}
	switch s.Cat {
	case CatCompute, CatSend, CatWait, CatSleep:
	default:
		return
	}
	h := f.hosts[s.Track]
	if h == nil {
		h = &HostUtil{Track: s.Track}
		f.hosts[s.Track] = h
	}
	d := s.End - s.Start
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
	h.Flops += s.Flops
}

// feed folds a batch recorder: its spans in export order, then its samples.
func (f *spanFold) feed(r *Recorder) {
	for _, pos := range r.exportOrder() {
		f.add(r.at(pos))
	}
	if f.windows != nil {
		for _, p := range r.Samples() {
			f.windows.AddSample(p)
		}
	}
}

// metrics finishes the folded host budgets against the makespan and adds
// what the recorder retains in either mode: link and traffic counters,
// counter totals and the sample series.
func (f *spanFold) metrics(r *Recorder, makespan float64) *Metrics {
	m := &Metrics{Makespan: makespan}
	for _, h := range f.hosts {
		h.Idle = makespan - h.Compute - h.Send - h.Wait - h.Sleep
		if h.Idle < 0 {
			h.Idle = 0
		}
		if makespan > 0 {
			h.Utilization = (h.Compute + h.Send) / makespan
		}
		m.Hosts = append(m.Hosts, *h)
	}
	sort.Slice(m.Hosts, func(i, j int) bool { return m.Hosts[i].Track < m.Hosts[j].Track })

	links := map[string]*LinkStat{}
	linkOf := func(track string) *LinkStat {
		l := links[track]
		if l == nil {
			l = &LinkStat{Link: track}
			links[track] = l
		}
		return l
	}
	trafficOf := func() *TrafficSplit {
		if m.Traffic == nil {
			m.Traffic = &TrafficSplit{}
		}
		return m.Traffic
	}
	for _, c := range r.Counters() {
		switch c.Name {
		case CntLinkBytes:
			linkOf(c.Track).Bytes = c.Value
		case CntLinkMsgs:
			linkOf(c.Track).Msgs = c.Value
		case CntLinkQueue:
			linkOf(c.Track).QueueDelay = c.Value
		case CntClusterBytes:
			if c.Track == "inter" {
				trafficOf().InterBytes = c.Value
			} else {
				trafficOf().IntraBytes = c.Value
			}
		case CntClusterMsgs:
			if c.Track == "inter" {
				trafficOf().InterMsgs = c.Value
			} else {
				trafficOf().IntraMsgs = c.Value
			}
		default:
			m.Counters = append(m.Counters, c)
		}
	}
	for _, l := range links {
		m.Links = append(m.Links, *l)
	}
	sort.Slice(m.Links, func(i, j int) bool { return m.Links[i].Link < m.Links[j].Link })

	var cur *Series
	for _, sp := range r.Samples() {
		if cur == nil || cur.Series != sp.Series || cur.Track != sp.Track {
			m.Series = append(m.Series, Series{Series: sp.Series, Track: sp.Track})
			cur = &m.Series[len(m.Series)-1]
		}
		cur.Points = append(cur.Points, SeriesPoint{T: sp.T, V: sp.V})
	}
	return m
}

// WriteJSON writes the metrics as indented JSON, deterministic because
// every member is written in declaration order and the slices are sorted.
// The bytes are those json.Encoder with a two-space indent gives for the
// struct tags above: a nil slice is null, an empty one [].
func (m *Metrics) WriteJSON(w io.Writer) error {
	j := newJSONWriter(w)
	// list writes a slice member: null for a nil slice, as encoding/json does.
	list := func(j *jsonWriter, depth int, key string, n int, isNil bool, row func(j *jsonWriter, i int)) {
		if isNil {
			j.member(depth, key)
			j.raw("null")
			return
		}
		j.array(depth, key, n, row)
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

// WriteCSV writes the metrics in long form: one section per table
// (hosts/links/counters/series), each with a header row. Numbers use %g so
// the output round-trips exactly.
func (m *Metrics) WriteCSV(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "table,track,field,value\n")
	fmt.Fprintf(&b, "run,,makespan,%g\n", m.Makespan)
	for _, h := range m.Hosts {
		fmt.Fprintf(&b, "host,%s,compute,%g\n", h.Track, h.Compute)
		fmt.Fprintf(&b, "host,%s,send,%g\n", h.Track, h.Send)
		fmt.Fprintf(&b, "host,%s,wait,%g\n", h.Track, h.Wait)
		fmt.Fprintf(&b, "host,%s,sleep,%g\n", h.Track, h.Sleep)
		fmt.Fprintf(&b, "host,%s,idle,%g\n", h.Track, h.Idle)
		fmt.Fprintf(&b, "host,%s,flops,%g\n", h.Track, h.Flops)
		fmt.Fprintf(&b, "host,%s,utilization,%g\n", h.Track, h.Utilization)
	}
	for _, l := range m.Links {
		fmt.Fprintf(&b, "link,%s,bytes,%g\n", l.Link, l.Bytes)
		fmt.Fprintf(&b, "link,%s,msgs,%g\n", l.Link, l.Msgs)
		fmt.Fprintf(&b, "link,%s,queue_delay,%g\n", l.Link, l.QueueDelay)
	}
	if t := m.Traffic; t != nil {
		fmt.Fprintf(&b, "traffic,intra,bytes,%g\n", t.IntraBytes)
		fmt.Fprintf(&b, "traffic,intra,msgs,%g\n", t.IntraMsgs)
		fmt.Fprintf(&b, "traffic,inter,bytes,%g\n", t.InterBytes)
		fmt.Fprintf(&b, "traffic,inter,msgs,%g\n", t.InterMsgs)
	}
	for _, c := range m.Counters {
		fmt.Fprintf(&b, "counter,%s,%s,%g\n", c.Track, c.Name, c.Value)
	}
	for _, s := range m.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "series,%s,%s@%g,%g\n", s.Track, s.Series, p.T, p.V)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
