package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/vgrid"
)

// timelineEvents collects, per track, the instants the -trace timeline
// plots, from the run's obs record: every message send or drop (a send
// span's start), every delivery to a blocked receive (the end of a wait span
// with a cause), every fault milestone (a mark) and every process's end (its
// final clock). Each instant is rounded to the microsecond, as printed.
func timelineEvents(rec *obs.Recorder, stats []vgrid.Stats) map[string][]float64 {
	events := map[string][]float64{}
	add := func(track string, t float64) {
		t, _ = strconv.ParseFloat(strconv.FormatFloat(t, 'f', 6, 64), 64)
		events[track] = append(events[track], t)
	}
	for _, s := range rec.Spans() {
		switch {
		case s.Cat == obs.CatSend, s.Cat == obs.CatMark:
			add(s.Track, s.Start)
		case s.Cat == obs.CatWait && s.Cause != 0:
			add(s.Track, s.End)
		}
	}
	for _, st := range stats {
		add(st.Name, st.Clock)
	}
	return events
}

// writeTimeline renders a coarse per-track activity timeline: one row per
// track, with event density bucketed into width columns over the run.
func writeTimeline(w io.Writer, events map[string][]float64, width int) error {
	if len(events) == 0 {
		_, err := fmt.Fprintln(w, "(no events recorded)")
		return err
	}
	tmax := 0.0
	names := make([]string, 0, len(events))
	nameW := 0
	for n, ts := range events {
		names = append(names, n)
		nameW = max(nameW, len(n))
		for _, t := range ts {
			tmax = max(tmax, t)
		}
	}
	if tmax == 0 {
		tmax = 1
	}
	sort.Strings(names)
	marks := []byte(" .:+*#")
	for _, n := range names {
		buckets := make([]int, width)
		for _, t := range events[n] {
			buckets[int(t/tmax*float64(width-1))]++
		}
		row := make([]byte, width)
		for i, cnt := range buckets {
			row[i] = marks[min(cnt, len(marks)-1)]
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", nameW, n, row); err != nil {
			return err
		}
	}
	// The axis label right-aligns tmax under the row end; when the formatted
	// value is wider than the timeline itself the padding clamps to zero.
	pad := max(0, width-len(fmt.Sprintf("%.4gs", tmax)))
	_, err := fmt.Fprintf(w, "%-*s  0%s%.4gs\n", nameW, "", strings.Repeat(" ", pad), tmax)
	return err
}
