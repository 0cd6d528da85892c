package vgrid

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// TraceEvent is one structured simulator event captured by a Recorder.
type TraceEvent struct {
	// Time is the virtual instant of the event.
	Time float64
	// Proc is the process name (or the host name for crash/restart events).
	Proc string
	// Kind is the event type: "send", "recv", "done", and under a fault
	// plan "drop", "crash", "restart".
	Kind string
	// Text is the remainder of the trace line (key=value details).
	Text string
}

// Recorder captures structured trace events. Attach with Engine.Record; the
// zero value is ready to use.
type Recorder struct {
	// Events holds every parsed trace event, in scheduling order.
	Events []TraceEvent
}

// Record attaches a recorder to the engine's trace hook. It must be called
// before Run. The textual Trace hook, if any, is replaced.
func (e *Engine) Record(rec *Recorder) {
	e.Trace = func(line string) {
		ev, ok := parseTraceLine(line)
		if ok {
			rec.Events = append(rec.Events, ev)
		}
	}
}

// parseTraceLine converts the engine's "t=<time> <proc> <kind> ..." lines.
func parseTraceLine(line string) (TraceEvent, bool) {
	var ev TraceEvent
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "t=") {
		return ev, false
	}
	if _, err := fmt.Sscanf(fields[0], "t=%f", &ev.Time); err != nil {
		return ev, false
	}
	ev.Proc = fields[1]
	ev.Kind = fields[2]
	ev.Text = strings.Join(fields[3:], " ")
	return ev, true
}

// WriteTimeline renders a coarse per-process activity timeline: one row per
// process, with event density bucketed into width columns over the run.
func (r *Recorder) WriteTimeline(w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	if len(r.Events) == 0 {
		_, err := fmt.Fprintln(w, "(no events recorded)")
		return err
	}
	tmax := 0.0
	procs := map[string][]float64{}
	for _, ev := range r.Events {
		procs[ev.Proc] = append(procs[ev.Proc], ev.Time)
		if ev.Time > tmax {
			tmax = ev.Time
		}
	}
	if tmax == 0 {
		tmax = 1
	}
	names := make([]string, 0, len(procs))
	nameW := 0
	for n := range procs {
		names = append(names, n)
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	sort.Strings(names)
	marks := []byte(" .:+*#")
	for _, n := range names {
		buckets := make([]int, width)
		for _, t := range procs[n] {
			b := int(t / tmax * float64(width-1))
			buckets[b]++
		}
		row := make([]byte, width)
		for i, cnt := range buckets {
			lvl := cnt
			if lvl >= len(marks) {
				lvl = len(marks) - 1
			}
			row[i] = marks[lvl]
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", nameW, n, string(row)); err != nil {
			return err
		}
	}
	// The axis label right-aligns tmax under the row end; when the formatted
	// value is wider than the timeline itself the padding clamps to zero
	// (strings.Repeat panics on a negative count).
	pad := width - len(fmt.Sprintf("%.4gs", tmax))
	if pad < 0 {
		pad = 0
	}
	_, err := fmt.Fprintf(w, "%-*s  0%s%.4gs\n", nameW, "", strings.Repeat(" ", pad), tmax)
	return err
}
