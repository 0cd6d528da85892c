package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/mmio"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the command's current output")

// msolve runs the command in-process on the test system — the matrix of
// `msgen -kind dominant -n 2000 -band 20`, written to a fresh directory —
// and returns its exit status, its output, and the files it left in that
// directory by name. "DIR" in an argument stands for the directory, and is
// put back in the returned output, so both compare across runs.
func msolve(t *testing.T, args ...string) (code int, stdout, stderr string, files map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	matrix := filepath.Join(dir, "a.mtx")
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 2000, Band: 20, PerRow: 6, Margin: 0.5, Seed: 1})
	if err := mmio.WriteMatrixFile(matrix, a); err != nil {
		t.Fatal(err)
	}
	argv := []string{"-matrix", matrix}
	for _, arg := range args {
		argv = append(argv, strings.ReplaceAll(arg, "DIR", dir))
	}
	var out, errw bytes.Buffer
	code = run(argv, &out, &errw)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files = map[string][]byte{}
	for _, ent := range entries {
		if ent.Name() == "a.mtx" {
			continue
		}
		if files[ent.Name()], err = os.ReadFile(filepath.Join(dir, ent.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return code, strings.ReplaceAll(out.String(), dir, "DIR"), strings.ReplaceAll(errw.String(), dir, "DIR"), files
}

// names lists a file set the way the tables below spell it.
func names(files map[string][]byte) string {
	var list []string
	for name := range files {
		list = append(list, name)
	}
	sort.Strings(list)
	return strings.Join(list, " ")
}

// The synthetic three-cluster grid the determinism contract is checked on
// (cluster3 cannot shard), and every telemetry output at once on it.
var (
	grid      = []string{"-hosts", "12", "-clusters", "3", "-procs", "8"}
	telemetry = []string{"-trace-json", "DIR/t.json", "-metrics-out", "DIR/m", "-window", "0.05"}
)

func cat(lists ...[]string) []string {
	var all []string
	for _, l := range lists {
		all = append(all, l...)
	}
	return all
}

// TestGoldenStdout holds the report of one run per solver mode, byte for
// byte: what every earlier change compared by hand against a build of its
// parent commit. Regenerate with `go test ./cmd/msolve -update` and read the
// diff.
func TestGoldenStdout(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"sync", []string{"-procs", "8"}},
		{"async", []string{"-procs", "8", "-async", "-cluster", "cluster3"}},
		{"topo-gateway", []string{"-procs", "10", "-cluster", "cluster3", "-topo", "-gateway"}},
		{"topo-gateway-async", []string{"-procs", "10", "-cluster", "cluster3", "-async", "-topo", "-gateway"}},
		{"gateway-async-ft-drop", []string{"-procs", "10", "-cluster", "cluster3", "-async", "-ft", "-drop", "0.01", "-gateway"}},
		{"two-stage", []string{"-procs", "8", "-two-stage", "-inner", "4"}},
		{"balance-adapt-slow", []string{"-procs", "8", "-cluster", "cluster2", "-balance", "-adapt", "-adapt-interval", "4", "-slow", "c2-00@0.001:inf:4"}},
		{"ft-drop", []string{"-procs", "10", "-cluster", "cluster3", "-async", "-ft", "-drop", "0.01"}},
		{"options", []string{"-procs", "6", "-cluster", "cluster2", "-scheme", "average", "-solver", "band", "-overlap", "5", "-cond", "-trace", "-o", "DIR/x.txt"}},
		{"telemetry", cat(grid, telemetry, []string{"-lanes", "0", "-critical-path"})},
		{"telemetry-streamed", cat(grid, telemetry, []string{"-lanes", "0", "-stream-trace"})},
	} {
		code, out, errs, _ := msolve(t, tc.args...)
		if code != 0 || errs != "" {
			t.Errorf("%s: exit %d, stderr %q", tc.name, code, errs)
			continue
		}
		golden := filepath.Join("testdata", tc.name+".golden")
		if *update {
			if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("%s: stdout differs from %s:\n%s", tc.name, golden, out)
		}
	}
}

// TestArtifacts: each telemetry flag combination leaves exactly its files;
// every trace parses; a streamed run writes the batch run's metrics byte for
// byte and its windows but for the critical-path attribution, which needs
// retained spans.
func TestArtifacts(t *testing.T) {
	all := map[string]map[string][]byte{}
	for _, tc := range []struct {
		flags []string
		files string
	}{
		{nil, ""},
		{[]string{"-critical-path", "-window", "0.05"}, ""},
		{[]string{"-trace-json", "DIR/t.json"}, "t.json"},
		{[]string{"-trace-json", "DIR/t.json", "-stream-trace"}, "t.json"},
		{[]string{"-metrics-out", "DIR/m"}, "m.metrics.csv m.metrics.json"},
		{[]string{"-metrics-out", "DIR/m", "-window", "0.05", "-lanes", "1"}, "m.metrics.csv m.metrics.json m.windows.csv m.windows.json"},
		{cat(telemetry, []string{"-critical-path"}), "m.lanes.json m.metrics.csv m.metrics.json m.windows.csv m.windows.json t.json"},
		{cat(telemetry, []string{"-stream-trace"}), "m.lanes.json m.metrics.csv m.metrics.json m.windows.csv m.windows.json t.json"},
	} {
		label := strings.Join(tc.flags, " ")
		code, _, errs, files := msolve(t, cat(grid, []string{"-lanes", "0"}, tc.flags)...)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", label, code, errs)
		}
		if got := names(files); got != tc.files {
			t.Errorf("%s: wrote %q, want %q", label, got, tc.files)
		}
		if trace, ok := files["t.json"]; ok && !json.Valid(trace) {
			t.Errorf("%s: t.json is not valid JSON", label)
		}
		all[label] = files
	}
	batch, streamed := all[strings.Join(cat(telemetry, []string{"-critical-path"}), " ")], all[strings.Join(cat(telemetry, []string{"-stream-trace"}), " ")]
	for _, name := range []string{"m.metrics.json", "m.metrics.csv", "m.lanes.json"} {
		if !bytes.Equal(batch[name], streamed[name]) {
			t.Errorf("%s of the streamed run differs from the batch run's", name)
		}
	}
	if !bytes.Contains(streamed["m.metrics.json"], []byte(`"track": "ms-7"`)) {
		t.Error("streamed m.metrics.json has no host rows")
	}
	var bw, sw map[string]any
	if err := json.Unmarshal(batch["m.windows.json"], &bw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(streamed["m.windows.json"], &sw); err != nil {
		t.Fatal(err)
	}
	if bw["critpath"] == nil || sw["critpath"] != nil {
		t.Errorf("critical-path attribution: batch %v, streamed %v; want it in the batch windows only", bw["critpath"] != nil, sw["critpath"] != nil)
	}
	delete(bw, "critpath")
	delete(sw, "critpath")
	if !reflect.DeepEqual(bw, sw) {
		t.Error("streamed m.windows.json differs from the batch run's outside critpath")
	}
}

// TestByteIdenticalAcrossWorkersAndLanes: report and artifacts are the same
// bytes for 1 and 4 workers and for one lane and a lane per cluster, batch
// and streamed. The lane-telemetry block exists only when lanes shard, so it
// is compared across workers at a lane per cluster.
func TestByteIdenticalAcrossWorkersAndLanes(t *testing.T) {
	for _, mode := range [][]string{{"-critical-path"}, {"-stream-trace"}} {
		base := cat(grid, []string{"-trace-json", "DIR/t.json", "-metrics-out", "DIR/m"}, mode)
		_, refOut, _, refFiles := msolve(t, cat(base, []string{"-workers", "1", "-lanes", "1"})...)
		for _, variant := range [][]string{{"-workers", "4", "-lanes", "1"}, {"-workers", "1", "-lanes", "0"}, {"-workers", "4", "-lanes", "0"}} {
			code, out, errs, files := msolve(t, cat(base, variant)...)
			if code != 0 || out != refOut || !reflect.DeepEqual(files, refFiles) {
				t.Errorf("%v %v: exit %d, stderr %q; report or artifacts differ from 1 worker / 1 lane", mode, variant, code, errs)
			}
		}
		windowed := cat(grid, telemetry, mode, []string{"-lanes", "0"})
		_, refOut, _, refFiles = msolve(t, cat(windowed, []string{"-workers", "1"})...)
		code, out, errs, files := msolve(t, cat(windowed, []string{"-workers", "4"})...)
		if code != 0 || out != refOut || !reflect.DeepEqual(files, refFiles) || files["m.lanes.json"] == nil {
			t.Errorf("%v windowed: exit %d, stderr %q; report or artifacts differ between 1 and 4 workers", mode, code, errs)
		}
	}
}

// TestUsageErrors: contradictory or incomplete flags are exit status 2 with
// one diagnostic line (or the flag package's usage text) and nothing on
// stdout, before any file is written.
func TestUsageErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 2 || out.Len() != 0 || !strings.HasPrefix(errw.String(), "Usage of msolve:\n") {
		t.Errorf("no -matrix: exit %d, stdout %q, stderr %q; want status 2 and the usage text", code, out.String(), errw.String())
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "flag provided but not defined: -no-such-flag\nUsage of msolve:"},
		{[]string{"-stream-trace"}, "msolve: -stream-trace needs -trace-json\n"},
		{[]string{"-stream-trace", "-trace-json", "DIR/t.json", "-critical-path"},
			"msolve: -stream-trace does not retain spans, so -critical-path is unavailable; drop one of the two\n"},
		{[]string{"-trace", "-stream-trace", "-trace-json", "DIR/t.json"},
			"msolve: -stream-trace does not retain spans, so -trace has no timeline to draw; drop one of the two\n"},
		{[]string{"-two-stage", "-inner", "0"}, "msolve: -two-stage needs -inner >= 1\n"},
		{[]string{"-window", "-1"}, "msolve: -window must be >= 0\n"},
		{[]string{"-procs", "0"}, "msolve: -procs must be >= 1\n"},
		{[]string{"-cluster", "cluster2", "-procs", "-1"}, "msolve: -procs must be >= 1\n"},
		{[]string{"-hosts", "12", "-procs", "0"}, "msolve: -procs must be >= 1\n"},
		{[]string{"-lanes", "-2"}, "msolve: -lanes must be >= 0\n"},
		{[]string{"-workers", "-1", "-o", "DIR/x.txt"}, "msolve: -workers must be >= 0\n"},
		{[]string{"-cond", "-scheme", "bogus"}, "msolve: unknown scheme \"bogus\" (want average, owner)\n"},
		{[]string{"-cond", "-solver", "bogus"}, "msolve: unknown solver \"bogus\" (want band, dense, sparse)\n"},
		{[]string{"-two-stage", "-inner-schedule", "nope"}, "msolve: core: unknown inner schedule \"nope\" (want fixed, ramp or residual)\n"},
		{[]string{"-two-stage", "-omega", "3"}, "msolve: core: two-stage omega 3 outside (0,2)\n"},
		{[]string{"-two-stage", "-omega", "-1"}, "msolve: core: two-stage omega -1 outside (0,2)\n"},
		{[]string{"-two-stage", "-precond-band", "-1"}, "msolve: core: two-stage preconditioner band -1 < 0\n"},
	} {
		code, out, errs, files := msolve(t, tc.args...)
		if code != 2 || out != "" || !strings.HasPrefix(errs, tc.want) || len(files) != 0 {
			t.Errorf("msolve %v: exit %d, stdout %q, stderr %q, files %q; want status 2 and %q", tc.args, code, out, errs, names(files), tc.want)
		}
	}
}

// TestRunFailures: input the run rejects is exit status 1 with exactly one
// diagnostic line and no report — an unshardable platform included, which
// used to be a process panic wrapped in a deadlock report.
func TestRunFailures(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cluster", "cluster4"}, `msolve: unknown cluster "cluster4" (want cluster1, cluster2, cluster3)`},
		{[]string{"-procs", "21"}, "msolve: cluster1 has 1..20 machines, asked for 21"},
		{[]string{"-hosts", "4", "-clusters", "9"}, "msolve: generated grid: 9 clusters for 4 hosts"},
		{[]string{"-crash", "c1-00@1"}, `msolve: crash spec "c1-00@1": want from:until`},
		{[]string{"-slow", "c1-00@0:1:nan"}, `msolve: slow spec "c1-00@0:1:nan": bad factor: "nan" is not a number`},
		{[]string{"-rhs", "DIR/missing.txt"}, "msolve: open DIR/missing.txt: no such file or directory"},
		{[]string{"-cluster", "cluster3", "-procs", "10", "-lanes", "0"}, "this topology cannot be sharded — run with a single lane"},
	} {
		code, out, errs, _ := msolve(t, tc.args...)
		if code != 1 || out != "" || !strings.Contains(errs, tc.want) || strings.Count(errs, "\n") != 1 {
			t.Errorf("msolve %v: exit %d, stdout %q, stderr %q; want status 1 and one line with %q", tc.args, code, out, errs, tc.want)
		}
	}
	dir := t.TempDir()
	wide := filepath.Join(dir, "wide.mtx")
	if err := os.WriteFile(wide, []byte("%%MatrixMarket matrix coordinate real general\n2 3 2\n1 1 1\n2 3 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-matrix", wide}, &out, &errw); code != 1 || out.Len() != 0 || errw.String() != "msolve: matrix is 2x3, need square\n" {
		t.Errorf("non-square matrix: exit %d, stdout %q, stderr %q", code, out.String(), errw.String())
	}
}
