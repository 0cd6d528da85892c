package obs

import (
	"errors"
	"io"
	"os"
)

// Export names the artifacts of one recorded run. It is the package's single
// export entry — Begin before the run, Finish after it — and the choice
// between retaining every span for a batch export and streaming them through
// a bounded ring is made in here. Its error texts name the msolve/msexp
// flags the five fields are bound to.
type Export struct {
	// TraceJSON is the path of the Chrome trace-event file ("" = none).
	TraceJSON string
	// StreamTrace writes the trace during the run, behind a bounded
	// flight-recorder ring: span memory stays flat, but no span is retained,
	// so the critical path (and its share of each window) is unavailable.
	StreamTrace bool
	// MetricsOut is the base path of MetricsOut.metrics.{json,csv} and, with
	// Window > 0, of MetricsOut.windows.{json,csv} ("" = none).
	MetricsOut string
	// Window is the width of the windowed metrics in virtual seconds (0 =
	// none).
	Window float64
	// CriticalPath asks for the critical-path decomposition of the makespan.
	CriticalPath bool
}

// Validate rejects contradictory combinations; Begin calls it.
func (x Export) Validate() error {
	switch {
	case x.Window < 0:
		return errors.New("-window must be >= 0")
	case x.StreamTrace && x.TraceJSON == "":
		return errors.New("-stream-trace needs -trace-json")
	case x.StreamTrace && x.CriticalPath:
		return errors.New("-stream-trace does not retain spans, so -critical-path is unavailable; drop one of the two")
	}
	return nil
}

// Exporting is a run between Export.Begin and Finish.
type Exporting struct {
	// Rec is the run's recorder, to attach to its engine
	// (vgrid.Engine.Observe).
	Rec  *Recorder
	x    Export
	fold spanFold
	// st and f are the streamer and the trace file it drains into (nil in
	// batch mode).
	st *Streamer
	f  *os.File
}

// Exported is what Finish computed on the way to the files, for the caller
// to print.
type Exported struct {
	// Metrics is the aggregate view (nil without MetricsOut).
	Metrics *Metrics
	// Windows is the windowed view (nil without Window).
	Windows *WindowedMetrics
	// CritPath is the critical-path report (nil without CriticalPath, or when
	// the run recorded no host-level span).
	CritPath *CPReport
	// Flushed, PeakPending and OverflowFlushes are the streamer's counts
	// (zero in batch mode): spans written, the ring's high-water mark, and
	// spans flushed ahead of their watermark.
	Flushed, PeakPending, OverflowFlushes int
}

// Begin validates the export and returns the handle of the run about to
// start. With StreamTrace it creates the trace file and switches the recorder
// into streaming mode, the metrics riding on the flushed spans; otherwise
// nothing is written until Finish.
func (x Export) Begin() (*Exporting, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	r := &Exporting{x: x, Rec: &Recorder{}}
	if x.MetricsOut != "" {
		r.fold.hosts = map[string]*HostUtil{}
	}
	if x.Window > 0 {
		r.fold.windows = NewWindowAccum(x.Window)
	}
	if x.StreamTrace {
		f, err := os.Create(x.TraceJSON)
		if err != nil {
			return nil, err
		}
		r.f, r.st = f, NewStreamer(f, 0)
		r.st.out.fold = r.fold // a copy sharing the map and the accumulator
		r.Rec.SetStream(r.st)
	}
	return r, nil
}

// Finish writes the artifacts of the finished run — the trace (or the tail of
// the streamed one), the metrics pair, the windows pair — and returns what
// it computed. makespan is the run's end-to-end virtual time. A batch and a
// streamed run write the same metrics and windows files, except that only
// the batch run attributes the critical path to the windows.
func (r *Exporting) Finish(makespan float64) (*Exported, error) {
	x, out := r.x, &Exported{}
	if r.st != nil {
		err := r.st.Close()
		if cerr := r.f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		out.Flushed, out.PeakPending, out.OverflowFlushes = r.st.Flushed(), r.st.PeakPending(), r.st.OverflowFlushes()
	} else {
		if x.TraceJSON != "" {
			if err := WriteFile(x.TraceJSON, func(w io.Writer) error { return WriteTraceJSON(w, r.Rec) }); err != nil {
				return nil, err
			}
		}
		r.fold.feed(r.Rec)
	}
	if x.MetricsOut != "" {
		out.Metrics = r.fold.metrics(r.Rec, makespan)
		if err := writePair(x.MetricsOut+".metrics", out.Metrics.WriteJSON, out.Metrics.WriteCSV); err != nil {
			return nil, err
		}
	}
	var cp *CPReport
	if x.CriticalPath || (x.Window > 0 && r.st == nil) {
		cp = CriticalPath(r.Rec)
	}
	if x.Window > 0 {
		out.Windows = r.fold.windows.Finish(makespan, cp)
		if x.MetricsOut != "" {
			if err := out.Windows.WriteFiles(x.MetricsOut); err != nil {
				return nil, err
			}
		}
	}
	if x.CriticalPath {
		out.CritPath = cp
	}
	return out, nil
}

// WriteFiles writes the windowed metrics as base.windows.json and
// base.windows.csv.
func (wm *WindowedMetrics) WriteFiles(base string) error {
	return writePair(base+".windows", wm.WriteJSON, wm.WriteCSV)
}

// writePair writes one view as base.json and base.csv.
func writePair(base string, json, csv func(io.Writer) error) error {
	if err := WriteFile(base+".json", json); err != nil {
		return err
	}
	return WriteFile(base+".csv", csv)
}

// WriteFile creates path and streams write into it: the one file writer
// behind every artifact of a run.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
