package obs_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// exportedSolve runs the shared multi-cluster workload through the export
// entry, its files going to a fresh directory, and returns the directory's
// contents by file name next to what Finish returned.
func exportedSolve(t *testing.T, x obs.Export, workers, lanes int) (map[string][]byte, *obs.Exported, *obs.Recorder) {
	t.Helper()
	dir := t.TempDir()
	if x.TraceJSON != "" {
		x.TraceJSON = filepath.Join(dir, x.TraceJSON)
	}
	if x.MetricsOut != "" {
		x.MetricsOut = filepath.Join(dir, x.MetricsOut)
	}
	ex, err := x.Begin()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.Finish(solveOn(t, workers, lanes, ex.Rec))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, ent := range entries {
		if files[ent.Name()], err = os.ReadFile(filepath.Join(dir, ent.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files, out, ex.Rec
}

// TestExportStreamedMetricsMatchBatch: the aggregate metrics ride on the one
// span fold, so a streamed run writes the metrics files of the batch run byte
// for byte — with its host rows, which the streaming path used to lose — and
// both stay identical for any worker count and any lane count. The windowed
// host and series rows agree exactly too (link rows are summed in flush
// order: TestStreamedWindowsMatchBatch); only the batch run has retained
// spans to attribute the critical path from.
func TestExportStreamedMetricsMatchBatch(t *testing.T) {
	batch := obs.Export{TraceJSON: "t.json", MetricsOut: "m", Window: testWindowWidth}
	stream := batch
	stream.StreamTrace = true
	ref, refOut, _ := exportedSolve(t, batch, 1, 1)
	if got := len(refOut.Metrics.Hosts); got != 12 {
		t.Fatalf("batch metrics have %d host rows, want 12", got)
	}
	if len(refOut.Windows.CritPath) == 0 {
		t.Fatal("batch windows carry no critical-path attribution")
	}
	var refStream map[string][]byte
	for _, tc := range []struct {
		name           string
		x              obs.Export
		workers, lanes int
	}{
		{"stream/workers=1/lanes=1", stream, 1, 1},
		{"stream/workers=4/lanes=auto", stream, 4, 0},
		{"batch/workers=4/lanes=1", batch, 4, 1},
		{"batch/workers=1/lanes=auto", batch, 1, 0},
	} {
		files, out, rec := exportedSolve(t, tc.x, tc.workers, tc.lanes)
		for _, name := range []string{"m.metrics.json", "m.metrics.csv"} {
			if !bytes.Equal(files[name], ref[name]) {
				t.Errorf("%s: %s differs from the batch run with 1 worker / 1 lane", tc.name, name)
			}
		}
		if !reflect.DeepEqual(out.Windows.Hosts, refOut.Windows.Hosts) || !reflect.DeepEqual(out.Windows.Series, refOut.Windows.Series) {
			t.Errorf("%s: windowed host or series rows differ from the batch run", tc.name)
		}
		if !tc.x.StreamTrace {
			for name := range ref {
				if !bytes.Equal(files[name], ref[name]) {
					t.Errorf("%s: %s differs from 1 worker / 1 lane", tc.name, name)
				}
			}
			continue
		}
		if out.Flushed != rec.NumSpans() || out.Flushed == 0 || out.PeakPending == 0 || out.OverflowFlushes != 0 {
			t.Errorf("%s: flushed %d of %d spans, peak %d, %d overflow flushes",
				tc.name, out.Flushed, rec.NumSpans(), out.PeakPending, out.OverflowFlushes)
		}
		if len(out.Windows.CritPath) != 0 {
			t.Errorf("%s: a streamed run attributed a critical path", tc.name)
		}
		if refStream == nil {
			refStream = files
		}
		for name := range refStream {
			if !bytes.Equal(files[name], refStream[name]) {
				t.Errorf("%s: %s differs from the streamed run with 1 worker / 1 lane", tc.name, name)
			}
		}
	}
}

// TestExportBatchMatchesPrimitives: a batch export writes exactly what the
// exported primitives produce on the run's recorder, and names exactly the
// files its fields ask for.
func TestExportBatchMatchesPrimitives(t *testing.T) {
	files, out, rec := exportedSolve(t, obs.Export{TraceJSON: "t.json", MetricsOut: "m", Window: testWindowWidth, CriticalPath: true}, 1, 1)
	makespan := out.Metrics.Makespan
	cp := obs.CriticalPath(rec)
	m, wm := obs.ComputeMetrics(rec, makespan), obs.ComputeWindows(rec, testWindowWidth, makespan, cp)
	want := map[string]func(*bytes.Buffer) error{
		"t.json":         func(b *bytes.Buffer) error { return obs.WriteTraceJSON(b, rec) },
		"m.metrics.json": func(b *bytes.Buffer) error { return m.WriteJSON(b) },
		"m.metrics.csv":  func(b *bytes.Buffer) error { return m.WriteCSV(b) },
		"m.windows.json": func(b *bytes.Buffer) error { return wm.WriteJSON(b) },
		"m.windows.csv":  func(b *bytes.Buffer) error { return wm.WriteCSV(b) },
	}
	if len(files) != len(want) {
		t.Errorf("wrote %d files, want %d", len(files), len(want))
	}
	for name, write := range want {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(files[name], buf.Bytes()) {
			t.Errorf("%s differs from the primitive's output", name)
		}
	}
	if !reflect.DeepEqual(out.CritPath, cp) {
		t.Error("returned critical path differs from CriticalPath on the recorder")
	}

	for _, tc := range []struct {
		x     obs.Export
		files string
	}{
		{obs.Export{CriticalPath: true}, ""},
		{obs.Export{Window: testWindowWidth}, ""},
		{obs.Export{TraceJSON: "t.json"}, "t.json"},
		{obs.Export{TraceJSON: "t.json", StreamTrace: true}, "t.json"},
		{obs.Export{MetricsOut: "m"}, "m.metrics.csv m.metrics.json"},
		{obs.Export{TraceJSON: "t.json", StreamTrace: true, MetricsOut: "m", Window: testWindowWidth},
			"m.metrics.csv m.metrics.json m.windows.csv m.windows.json t.json"},
	} {
		files, out, _ := exportedSolve(t, tc.x, 1, 1)
		var names []string
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		if got := strings.Join(names, " "); got != tc.files {
			t.Errorf("%+v wrote %q, want %q", tc.x, got, tc.files)
		}
		if (out.Metrics != nil) != (tc.x.MetricsOut != "") || (out.Windows != nil) != (tc.x.Window > 0) || (out.CritPath != nil) != tc.x.CriticalPath {
			t.Errorf("%+v returned metrics %v, windows %v, critical path %v", tc.x, out.Metrics != nil, out.Windows != nil, out.CritPath != nil)
		}
	}
}

// TestExportRejections pins the option errors, whose texts are the commands'
// diagnostics, and that an uncreatable file fails the side that creates it.
func TestExportRejections(t *testing.T) {
	for _, tc := range []struct {
		x   obs.Export
		err string
	}{
		{obs.Export{Window: -1}, "-window must be >= 0"},
		{obs.Export{Window: math.NaN()}, "-window must be >= 0"},
		{obs.Export{Window: math.Inf(1)}, "-window must be finite"},
		{obs.Export{Window: math.Inf(-1)}, "-window must be >= 0"},
		{obs.Export{StreamTrace: true}, "-stream-trace needs -trace-json"},
		{obs.Export{StreamTrace: true, MetricsOut: "m"}, "-stream-trace needs -trace-json"},
		{obs.Export{StreamTrace: true, TraceJSON: "t.json", CriticalPath: true},
			"-stream-trace does not retain spans, so -critical-path is unavailable; drop one of the two"},
	} {
		if _, err := tc.x.Begin(); err == nil || err.Error() != tc.err {
			t.Errorf("%+v: Begin error %v, want %q", tc.x, err, tc.err)
		}
	}
	missing := filepath.Join(t.TempDir(), "missing", "t.json")
	if _, err := (obs.Export{TraceJSON: missing, StreamTrace: true}).Begin(); err == nil {
		t.Error("streaming into an uncreatable file: Begin succeeded")
	}
	ex, err := obs.Export{TraceJSON: missing}.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Finish(1); err == nil {
		t.Error("batch export into an uncreatable file: Finish succeeded")
	}
}

// TestExportWindowCap: a window so narrow that the run needs more windows
// than the export keeps fails Finish with an error naming -window, batch and
// streamed, and a batch export writes no file — instead of folding a window
// per nanosecond (or 10^297 of them) per host until memory runs out.
func TestExportWindowCap(t *testing.T) {
	for _, x := range []obs.Export{
		{MetricsOut: "m", TraceJSON: "t.json", Window: 1e-9},
		{MetricsOut: "m", TraceJSON: "t.json", Window: 1e-300, StreamTrace: true},
	} {
		dir := t.TempDir()
		x.MetricsOut = filepath.Join(dir, x.MetricsOut)
		x.TraceJSON = filepath.Join(dir, x.TraceJSON)
		ex, err := x.Begin()
		if err != nil {
			t.Fatal(err)
		}
		_, err = ex.Finish(solveOn(t, 1, 1, ex.Rec))
		if err == nil || !strings.HasPrefix(err.Error(), "-window ") || !strings.Contains(err.Error(), "windows") {
			t.Errorf("window %g (stream %v): Finish error %v, want one naming -window", x.Window, x.StreamTrace, err)
		}
		entries, _ := os.ReadDir(dir)
		if !x.StreamTrace && len(entries) != 0 {
			t.Errorf("window %g: %d files written, want none", x.Window, len(entries))
		}
	}
}
