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

// The synthetic three-cluster grid the determinism contract is checked on,
// and every telemetry output at once on it.
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
		{"telemetry", cat(grid, telemetry, []string{"-critical-path"})},
		{"telemetry-streamed", cat(grid, telemetry, []string{"-stream-trace"})},
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
		{[]string{"-metrics-out", "DIR/m", "-window", "0.05"}, "m.metrics.csv m.metrics.json m.windows.csv m.windows.json"},
		{cat(telemetry, []string{"-critical-path"}), "m.metrics.csv m.metrics.json m.windows.csv m.windows.json t.json"},
		{cat(telemetry, []string{"-stream-trace"}), "m.metrics.csv m.metrics.json m.windows.csv m.windows.json t.json"},
	} {
		label := strings.Join(tc.flags, " ")
		code, _, errs, files := msolve(t, cat(grid, tc.flags)...)
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
	for _, name := range []string{"m.metrics.json", "m.metrics.csv"} {
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

// TestByteIdenticalAcrossWorkers: report and artifacts are the same bytes
// for 1 and 4 workers, batch and streamed, with and without windows.
func TestByteIdenticalAcrossWorkers(t *testing.T) {
	for _, mode := range [][]string{{"-critical-path"}, {"-stream-trace"}} {
		for _, flags := range [][]string{{"-trace-json", "DIR/t.json", "-metrics-out", "DIR/m"}, telemetry} {
			base := cat(grid, flags, mode)
			_, refOut, _, refFiles := msolve(t, cat(base, []string{"-workers", "1"})...)
			code, out, errs, files := msolve(t, cat(base, []string{"-workers", "4"})...)
			if code != 0 || out != refOut || !reflect.DeepEqual(files, refFiles) {
				t.Errorf("%v %v: exit %d, stderr %q; report or artifacts differ between 1 and 4 workers", mode, flags, code, errs)
			}
		}
	}
}

// TestLinearScheme: -scheme reaches every weighting family core has, the
// linear ramp included, and the run converges.
func TestLinearScheme(t *testing.T) {
	code, out, errs, _ := msolve(t, "-scheme", "linear", "-overlap", "5")
	if code != 0 || errs != "" || !strings.Contains(out, "(synchronous, linear weights,") {
		t.Errorf("exit %d, stderr %q, stdout %q", code, errs, out)
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
		{[]string{"-window", "nan", "-metrics-out", "DIR/m"}, "msolve: -window must be >= 0\n"},
		{[]string{"-window", "inf", "-metrics-out", "DIR/m"}, "msolve: -window must be finite\n"},
		{[]string{"-procs", "0"}, "msolve: -procs must be >= 1\n"},
		{[]string{"-cluster", "cluster2", "-procs", "-1"}, "msolve: -procs must be >= 1\n"},
		{[]string{"-hosts", "12", "-procs", "0"}, "msolve: -procs must be >= 1\n"},
		{[]string{"-lanes", "1"}, "flag provided but not defined: -lanes\nUsage of msolve:"},
		{[]string{"-workers", "-1", "-o", "DIR/x.txt"}, "msolve: -workers must be >= 0\n"},
		{[]string{"-hosts", "4", "-het", "nan"}, "msolve: -het NaN outside [0, 1)\n"},
		{[]string{"-hosts", "4", "-het", "1"}, "msolve: -het 1 outside [0, 1)\n"},
		{[]string{"-drop", "-0.5"}, "msolve: -drop -0.5 outside [0, 1]\n"},
		{[]string{"-drop", "nan"}, "msolve: -drop NaN outside [0, 1]\n"},
		{[]string{"-drop", "1.5"}, "msolve: -drop 1.5 outside [0, 1]\n"},
		{[]string{"-cond", "-scheme", "bogus"}, "invalid value \"bogus\" for flag -scheme: unknown weight scheme \"bogus\" (want owner, average, linear)\nUsage of msolve:"},
		{[]string{"-cond", "-solver", "bogus"}, "msolve: unknown solver \"bogus\" (want band, dense, sparse)\n"},
		{[]string{"-two-stage", "-inner-schedule", "nope"}, "invalid value \"nope\" for flag -inner-schedule: unknown inner schedule \"nope\" (want fixed, ramp, residual)\nUsage of msolve:"},
		{[]string{"-inner-schedule", "nope"}, "invalid value \"nope\" for flag -inner-schedule: unknown inner schedule \"nope\" (want fixed, ramp, residual)\nUsage of msolve:"},
		{[]string{"-two-stage", "-omega", "3"}, "msolve: -omega 3 out of range (want in (0, 2))\n"},
		{[]string{"-two-stage", "-omega", "-1"}, "msolve: -omega -1 out of range (want in (0, 2))\n"},
		{[]string{"-two-stage", "-omega", "nan"}, "msolve: -omega NaN out of range (want in (0, 2))\n"},
		{[]string{"-two-stage", "-precond-band", "-1"}, "msolve: -precond-band -1 out of range (want >= 1)\n"},
		// Options core checks only once the matrix is read, and a fault
		// plan the run would check only once the report had begun.
		{[]string{"-tol", "nan"}, "msolve: -tol NaN out of range (want > 0)\n"},
		{[]string{"-tol", "inf"}, "msolve: -tol +Inf out of range (want finite)\n"},
		{[]string{"-tol", "0"}, "msolve: -tol 0 out of range (want > 0)\n"},
		{[]string{"-two-stage", "-inner-schedule", ""}, "invalid value \"\" for flag -inner-schedule: unknown inner schedule \"\" (want fixed, ramp, residual)\nUsage of msolve:"},
		{[]string{"-two-stage", "-omega", "0"}, "msolve: -omega 0 out of range (want in (0, 2))\n"},
		{[]string{"-two-stage", "-precond-band", "0"}, "msolve: -precond-band 0 out of range (want >= 1)\n"},
		{[]string{"-adapt", "-adapt-interval", "0"}, "msolve: -adapt-interval 0 out of range (want >= 1)\n"},
		{[]string{"-adapt", "-adapt-hysteresis", "0"}, "msolve: -adapt-hysteresis 0 out of range (want > 0)\n"},
		{[]string{"-tol", "-1"}, "msolve: -tol -1 out of range (want > 0)\n"},
		{[]string{"-overlap", "-5"}, "msolve: -overlap -5 out of range (want >= 0)\n"},
		{[]string{"-adapt", "-adapt-interval", "-1"}, "msolve: -adapt-interval -1 out of range (want >= 1)\n"},
		{[]string{"-adapt", "-adapt-hysteresis", "nan"}, "msolve: -adapt-hysteresis NaN out of range (want > 0)\n"},
		{[]string{"-adapt", "-adapt-hysteresis", "-0.5"}, "msolve: -adapt-hysteresis -0.5 out of range (want > 0)\n"},
		{[]string{"-adapt", "-two-stage"}, "msolve: core: incompatible options: Adapt with TwoStage\n"},
		{[]string{"-slow", "c1-00@0:1:-2"}, "msolve: -slow: slow spec \"c1-00@0:1:-2\": factor -2 must be >= 1\n"},
		{[]string{"-slow", "c1-00@0:1:nan"}, "msolve: -slow: slow spec \"c1-00@0:1:nan\": bad factor: \"nan\" is not a number\n"},
		{[]string{"-crash", "c1-00@1"}, "msolve: -crash: crash spec \"c1-00@1\": want from:until\n"},
	} {
		code, out, errs, files := msolve(t, tc.args...)
		if code != 2 || out != "" || !strings.HasPrefix(errs, tc.want) || len(files) != 0 {
			t.Errorf("msolve %v: exit %d, stdout %q, stderr %q, files %q; want status 2 and %q", tc.args, code, out, errs, names(files), tc.want)
		}
	}
}

// TestRunFailures: input the run rejects is exit status 1 with exactly one
// diagnostic line and no report.
func TestRunFailures(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cluster", "cluster4"}, `msolve: unknown cluster "cluster4" (want cluster1, cluster2, cluster3)`},
		{[]string{"-procs", "21"}, "msolve: cluster1 has 1..20 machines, asked for 21"},
		{[]string{"-hosts", "4", "-clusters", "9"}, "msolve: generated grid: 9 clusters for 4 hosts"},
		{[]string{"-rhs", "DIR/missing.txt"}, "msolve: open DIR/missing.txt: no such file or directory"},
		// A host the platform lacks fails when the run starts, before the
		// report's fault line.
		{[]string{"-slow", "nosuch@0:1:2"}, `msolve: vgrid: fault plan references unknown host "nosuch"`},
		// More windows than the export keeps: an error, not a fold that
		// grows until memory runs out.
		{[]string{"-window", "1e-300", "-metrics-out", "DIR/m"}, "msolve: -window 1e-300 needs more than 1048576 windows"},
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
