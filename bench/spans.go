package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from bench's side of the
// boundary. Times are host seconds since the recorder was created.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Rep    int     `json:"rep"`    // shared by every span of one repetition
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // duration minus the part child spans cover
}

// spanRec keeps spans in memory until the benchmark ends. The benchmark is a
// single client, so the recorder is used from one goroutine and takes no
// lock. A nil *spanRec records nothing: the untraced pass runs the same code
// with a nil recorder.
type spanRec struct {
	epoch time.Time
	rep   int
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{epoch: time.Now()} }

// setRep sets the repetition id stamped on spans started from now on.
func (r *spanRec) setRep(rep int) {
	if r != nil {
		r.rep = rep
	}
}

// start opens a span under parent (0 for a root) and returns its id.
func (r *spanRec) start(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Rep: r.rep, Name: name,
		Start: time.Since(r.epoch).Seconds(),
	})
	return len(r.spans)
}

// end closes the span with the given id.
func (r *spanRec) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.epoch).Seconds()
}

// computeSelf fills every span's self time: its duration minus the union of
// its children's intervals, each clipped to the parent, so overlapping
// children are not subtracted twice.
func computeSelf(spans []span) {
	children := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := 0.0, s.Start
		for _, c := range iv {
			lo, hi := c[0], c[1]
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// perRep returns, for every repetition that has a span of that name, the
// summed duration of those spans, in repetition order.
func (r *spanRec) perRep(name string) []float64 {
	if r == nil {
		return nil
	}
	sum := map[int]float64{}
	var reps []int
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		if _, ok := sum[s.Rep]; !ok {
			reps = append(reps, s.Rep)
		}
		sum[s.Rep] += s.End - s.Start
	}
	out := make([]float64, len(reps))
	for i, rep := range reps {
		out[i] = sum[rep]
	}
	return out
}

// writeJSON flushes the spans, with self times, to path.
func (r *spanRec) writeJSON(path string) error {
	computeSelf(r.spans)
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
