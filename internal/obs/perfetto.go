package obs

import (
	"io"
	"sort"
)

// WriteTraceJSON exports the recorder as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Process tracks (pid 1) and
// solver overlays (pid 3) use complete "X" events and tile without overlap;
// in-flight message transfers (pid 2) use async "b"/"e" pairs keyed by the
// message sequence number, because transfers on a shared link legitimately
// overlap; metric samples become counter "C" tracks (pid 4). The output is
// deterministic: same run, same bytes, regardless of worker count — events
// follow the recorder's span export order and sorted samples, tids follow the
// sorted track names, and the encoder (encode.go) writes every event's members
// and args in one fixed order. A span or sample holding a NaN or an infinity
// fails the export with an error naming it; what was written before it is
// an incomplete document.
func WriteTraceJSON(w io.Writer, r *Recorder) error {
	order := r.exportOrder()
	samples := r.Samples()

	// Assign tids: per pid, tracks sorted by name.
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

	enc.rows(len(order), func(j *jsonWriter, i int) {
		s := r.at(order[i])
		pid := pidOf(s.Cat)
		j.span(s, pid, tids[pid][s.Track])
	})

	for i := range samples {
		name := counter.of(&samples[i])
		enc.counter(name, tids[pidMetrics][name], samples[i].T, samples[i].V)
	}
	return enc.finish()
}
