package obs

import (
	"fmt"
	"io"
	"sort"
)

// CPSegment is one interval of the critical path: a contiguous stretch of
// virtual time attributed to one span (or to an idle gap) on one track.
type CPSegment struct {
	// Track is the process track the segment was attributed on ("" for the
	// network hop of a message-caused wait).
	Track string
	// Cat is the bucket-deciding category: a host span category, CatNet for
	// a message in flight, or "idle" for an uncovered gap.
	Cat string
	// Name is the display label of the underlying span ("idle" for gaps).
	Name string
	// Start and End bound the attributed interval.
	Start float64
	// End is the interval's last instant.
	End float64
	// Iter is the solver iteration of the underlying span, when known.
	Iter int
}

// Dur returns the segment's attributed duration.
func (s CPSegment) Dur() float64 { return s.End - s.Start }

// CPReport is the critical-path decomposition of a run: the makespan split
// exactly into compute, network and wait time along one backward walk from
// the last finishing span to virtual time zero.
type CPReport struct {
	// Makespan is the virtual end time the walk started from.
	Makespan float64
	// Compute is critical-path time inside charged compute segments.
	Compute float64
	// Network is critical-path time in sender-side pushes and in-flight
	// transfers.
	Network float64
	// Wait is critical-path time blocked, sleeping or idle.
	Wait float64
	// Segments is the walk's attribution list in forward virtual-time order.
	Segments []CPSegment
}

// CriticalPath walks the span DAG backward from the globally last host-level
// span end. At each step the cursor (track, t) is moved left: through a
// compute/send/sleep span to its start; through a message-caused wait to the
// causing transfer's wire start, jumping to the sender's track; through an
// uncovered gap to the previous span's end. Each step attributes exactly the
// interval it skips to one bucket, so Compute+Network+Wait equals Makespan
// by construction. Returns nil when the recorder holds no host-level spans.
func CriticalPath(r *Recorder) *CPReport {
	// Host-level tiling spans per track, as chunk positions in export order
	// — sorted by start.
	byTrack := map[string][]int32{}
	transfers := map[int64]*Span{}
	for _, pos := range r.exportOrder() {
		switch s := r.at(pos); s.Cat {
		case CatCompute, CatSend, CatWait, CatSleep:
			byTrack[s.Track] = append(byTrack[s.Track], pos)
		case CatNet:
			if s.Seq != 0 {
				transfers[s.Seq] = s
			}
		}
	}
	var track string
	t := -1.0
	for name, spans := range byTrack {
		last := r.at(spans[len(spans)-1])
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

	// Each step strictly decreases t, and each span/gap is crossed at most
	// once per visit, but a generous cap guards against malformed input.
	for steps := 0; t > 0 && steps < 4*r.NumSpans()+64; steps++ {
		spans := byTrack[track]
		// Latest span on the track starting strictly before t.
		i := sort.Search(len(spans), func(i int) bool { return r.at(spans[i]).Start >= t }) - 1
		if i < 0 {
			// Nothing earlier on this track: the head gap is idle time.
			attr(CPSegment{Track: track, Cat: "idle", Name: "idle", Start: 0, End: t})
			t = 0
			break
		}
		s := r.at(spans[i])
		if s.End < t {
			// Gap between s and the cursor: idle.
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
				// The resume was caused by a message: the interval back to
				// its wire start is network time; continue on the sender.
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
		// Cap hit or walk stalled: account the remainder as wait so the
		// shares still sum to the makespan.
		attr(CPSegment{Track: track, Cat: "idle", Name: "unattributed", Start: 0, End: t})
	}
	// Reverse into forward time order.
	for i, j := 0, len(cp.Segments)-1; i < j; i, j = i+1, j-1 {
		cp.Segments[i], cp.Segments[j] = cp.Segments[j], cp.Segments[i]
	}
	return cp
}

// TopK returns the k longest critical-path segments, longest first (ties
// broken by earlier start).
func (cp *CPReport) TopK(k int) []CPSegment {
	out := make([]CPSegment, len(cp.Segments))
	copy(out, cp.Segments)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dur() != out[j].Dur() {
			return out[i].Dur() > out[j].Dur()
		}
		return out[i].Start < out[j].Start
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Fprint writes a human-readable critical-path report: the makespan
// decomposition with percentage shares, then the top-k critical segments.
func (cp *CPReport) Fprint(w io.Writer, k int) {
	pct := func(v float64) float64 {
		if cp.Makespan == 0 {
			return 0
		}
		return 100 * v / cp.Makespan
	}
	fmt.Fprintf(w, "critical path: makespan %.6fs = compute %.6fs (%.1f%%) + network %.6fs (%.1f%%) + wait %.6fs (%.1f%%)\n",
		cp.Makespan, cp.Compute, pct(cp.Compute), cp.Network, pct(cp.Network), cp.Wait, pct(cp.Wait))
	top := cp.TopK(k)
	for i, s := range top {
		loc := s.Track
		if loc == "" {
			loc = "net"
		}
		fmt.Fprintf(w, "  #%-2d %-8s %-12s %-10s [%.6f, %.6f] %.6fs (%.1f%%)\n",
			i+1, s.Cat, s.Name, loc, s.Start, s.End, s.Dur(), pct(s.Dur()))
	}
}
