package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the command's current output")

// The two inputs are the windowed metrics of one solve on cluster2, clean and
// with one host slowed 4x, written by
//
//	msgen -kind dominant -n 2000 -band 20 -o a.mtx
//	msolve -matrix a.mtx -procs 4 -cluster cluster2 -window 0.008 -metrics-out clean
//	msolve -matrix a.mtx -procs 4 -cluster cluster2 -window 0.008 -metrics-out slow -slow c2-00@0.001:inf:4
//
// and checked in as testdata/{clean,slow}.windows.json.
const (
	clean = "testdata/clean.windows.json"
	slow  = "testdata/slow.windows.json"
)

// msprof runs the command in-process and returns its exit status and output.
func msprof(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestGoldenReports holds each sub-command's report to recorded bytes, with
// flags before and after the file arguments. Regenerate with
// `go test ./cmd/msprof -update` and read the diff.
func TestGoldenReports(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"summary", []string{"summary", slow, "-top", "3"}},
		{"diff", []string{"diff", "-top", "3", clean, slow}},
		{"export", []string{"export", clean, "-csv", "-"}},
	} {
		code, out, errs := msprof(tc.args...)
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

// TestExportJSONRoundTrips: re-exporting a windowed file as JSON writes the
// bytes msolve wrote, to stdout and to a file alike.
func TestExportJSONRoundTrips(t *testing.T) {
	want, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "w.json")
	code, stdout, errs := msprof("export", "-json", "-", clean)
	if code != 0 || stdout != string(want) {
		t.Errorf("export -json -: exit %d, stderr %q, output differs from %s", code, errs, clean)
	}
	if code, _, errs = msprof("export", "-json", out, clean); code != 0 {
		t.Fatalf("export -json FILE: exit %d, stderr %q", code, errs)
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want) {
		t.Errorf("export -json FILE: %v, file differs from %s", err, clean)
	}
}

// TestExitStatus: usage is exit 2 and a file that fails is exit 1, each with
// a diagnostic on stderr and nothing on stdout.
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	aggregate := filepath.Join(dir, "m.metrics.json")
	if err := os.WriteFile(aggregate, []byte(`{"makespan": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.json")
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{nil, 2, "usage:\n  msprof summary FILE"},
		{[]string{"bogus"}, 2, "msprof: unknown sub-command \"bogus\"\nusage:"},
		{[]string{"summary"}, 2, "msprof: usage: summary needs 1 metrics file(s), got 0\n"},
		{[]string{"diff", clean}, 2, "msprof: usage: diff needs 2 metrics file(s), got 1\n"},
		{[]string{"summary", clean, "-top", "x"}, 2, "invalid value \"x\" for flag -top"},
		{[]string{"export", clean}, 2, "msprof: usage: export needs -json and/or -csv\n"},
		{[]string{"summary", missing}, 1, "msprof: open " + missing + ": no such file or directory\n"},
		{[]string{"diff", clean, missing}, 1, "msprof: open " + missing + ": no such file or directory\n"},
		{[]string{"diff", aggregate, slow}, 1, "msprof: " + aggregate + ": not a windowed metrics file (write one with -window > 0)\n"},
		{[]string{"export", aggregate, "-csv", "-"}, 1, "not a windowed metrics file"},
	} {
		code, out, errs := msprof(tc.args...)
		if code != tc.code || out != "" || !strings.Contains(errs, tc.want) {
			t.Errorf("msprof %v: exit %d, stdout %q, stderr %q; want status %d and %q", tc.args, code, out, errs, tc.code, tc.want)
		}
	}
}

// TestSummaryOfAggregateFile: a metrics file without a window width is
// summarized as aggregate metrics.
func TestSummaryOfAggregateFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.metrics.json")
	body := `{"makespan": 2.5, "hosts": [{"track": "a", "utilization": 0.25}, {"track": "b", "utilization": 0.75}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errs := msprof("summary", path, "-top", "1")
	want := "aggregate metrics: makespan 2.500000s, 2 hosts, 0 links\n" +
		"  b                util 0.750  compute 0.0000  send 0.0000  wait 0.0000  idle 0.0000\n"
	if code != 0 || errs != "" || out != want {
		t.Errorf("exit %d, stderr %q, stdout:\n%swant:\n%s", code, errs, out, want)
	}
}
