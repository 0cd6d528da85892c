package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the testdata/ golden files from the command's current output")

// msexp runs the command in-process and returns its exit status and output.
func msexp(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestTable1CSV(t *testing.T) {
	code, out, errs := msexp("-scale", "64", "-csv", "-quiet", "table1")
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if lines[0] != "procs,distributed SuperLU,sync multisplitting-LU,async multisplitting-LU,factorization time" {
		t.Errorf("header %q", lines[0])
	}
	if len(lines) != 1+10 { // the ten processor counts of the paper's Table 1
		t.Errorf("%d lines, want a header and 10 rows:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "1,") || !strings.HasSuffix(lines[1], ",-,-,-") {
		t.Errorf("one-processor row %q, want the direct solver alone", lines[1])
	}
}

func TestUnknownExperimentListsNames(t *testing.T) {
	code, out, errs := msexp("table9")
	if code != 2 || out != "" {
		t.Fatalf("exit %d, stdout %q; want usage status 2 and no table", code, out)
	}
	for _, want := range []string{`"table9"`, "table1", "table4fair", "twostage", "adaptive"} {
		if !strings.Contains(errs, want) {
			t.Errorf("diagnostic %q does not mention %s", errs, want)
		}
	}
}

// TestUnknownExperimentFailsBeforeTheFirstRuns: every name is resolved before
// any experiment runs, so a typo after a valid name prints no table.
func TestUnknownExperimentFailsBeforeTheFirstRuns(t *testing.T) {
	code, out, errs := msexp("-quiet", "-scale", "64", "table1", "bogus")
	if code != 2 || out != "" {
		t.Fatalf("exit %d, stdout %q; want usage status 2 and no table", code, out)
	}
	for _, want := range []string{`"bogus"`, "table1", "adaptive"} {
		if !strings.Contains(errs, want) {
			t.Errorf("diagnostic %q does not mention %s", errs, want)
		}
	}
}

// TestOutOfRangeFlags: a numeric flag out of its range or an unknown
// schedule name is one diagnostic line and usage status 2 before anything
// runs — not a silent fall-back to the default the zero value of
// experiments.Config stands for, nor a solver error after the first rows. A
// flag that is gone is the flag package's diagnostic and usage text.
func TestOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "0"}, "msexp: -scale must be >= 1\n"},
		{[]string{"-scale", "-8"}, "msexp: -scale must be >= 1\n"},
		{[]string{"-window", "-1"}, "msexp: -window must be >= 0\n"},
		{[]string{"-lanes", "1"}, "flag provided but not defined: -lanes\nUsage of msexp:\n"},
		{[]string{"-workers", "-1"}, "msexp: -workers must be >= 0\n"},
		{[]string{"-inner-schedule", "nope"}, "msexp: core: unknown inner schedule \"nope\" (want fixed, ramp or residual)\n"},
		{[]string{"-omega", "3"}, "msexp: core: two-stage omega 3 outside (0,2)\n"},
		{[]string{"-omega", "-0.5"}, "msexp: core: two-stage omega -0.5 outside (0,2)\n"},
		{[]string{"-omega", "NaN"}, "msexp: core: two-stage omega NaN outside (0,2)\n"},
		{[]string{"-precond-band", "-1"}, "msexp: core: two-stage preconditioner band -1 < 0\n"},
	} {
		dir := t.TempDir()
		args := append(tc.args, "-quiet", "-metrics-out", dir+"/m", "table1", "windowed", "twostage")
		code, out, errs := msexp(args...)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		// The flag package follows its diagnostic with the usage text.
		match := errs == tc.want || strings.HasSuffix(tc.want, "Usage of msexp:\n") && strings.HasPrefix(errs, tc.want)
		if code != 2 || out != "" || !match || len(entries) != 0 {
			t.Errorf("msexp %v: exit %d, stdout %q, stderr %q, %d files; want status 2 and %q", tc.args, code, out, errs, len(entries), tc.want)
		}
	}
}

// TestRejectedInputFailsWithoutATable: input the solver refuses is an exit-1
// diagnostic naming the cause — not a table of "err" cells with exit 0, and
// not a panic.
func TestRejectedInputFailsWithoutATable(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		// A negative controller interval reaches core.Launch, which refuses it.
		{[]string{"-quiet", "-csv", "-scale", "64", "-adapt", "-adapt-interval", "-1", "table1"}, []string{"table1 failed", "AdaptInterval -1"}},
	} {
		code, out, errs := msexp(tc.args...)
		if code != 1 || out != "" {
			t.Errorf("msexp %v: exit %d, stdout %q; want status 1 and no table", tc.args, code, out)
		}
		for _, want := range tc.want {
			if !strings.Contains(errs, want) {
				t.Errorf("msexp %v: diagnostic %q does not mention %q", tc.args, errs, want)
			}
		}
	}
}

// goldenRuns are the msexp runs TestPaperTablesGolden holds to recorded bytes.
var goldenRuns = []struct {
	golden string
	args   []string
}{
	{"testdata/tables-scale64.csv", []string{"-scale", "64", "table1", "table2", "table3", "table4", "figure3",
		"faultsweep", "utilization", "windowed", "topology", "twostage", "adaptive", "table4fair"}},
	{"testdata/tables-scale32.csv", []string{"-scale", "32", "table2", "table3"}},
}

// TestGoldenCoversDefaultRun: every experiment a bare msexp run prints is in
// the golden file, so no table of the default run goes unchecked.
func TestGoldenCoversDefaultRun(t *testing.T) {
	held := map[string]bool{}
	for _, name := range goldenRuns[0].args {
		held[name] = true
	}
	for _, x := range experiments.All() {
		if !held[x.Name] {
			t.Errorf("default experiment %q is not in %s", x.Name, goldenRuns[0].golden)
		}
	}
}

// TestPaperTablesGolden holds every table to recorded bytes: the tables are a
// function of their inputs, so a run that differs from the file differs
// either from the commit that recorded it or from itself (order.RCM used to
// break its ties by map iteration, and the distributed-LU column of the
// scale-32 pair moved in its last digit from run to run). Regenerate with
// `go test ./cmd/msexp -update`, read the diff, and give the reason in
// CHANGES.md.
func TestPaperTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every paper table (~20 s)")
	}
	for _, tc := range goldenRuns {
		code, out, errs := msexp(append([]string{"-quiet", "-csv"}, tc.args...)...)
		if code != 0 || errs != "" {
			t.Errorf("msexp %v: exit %d, stderr %q", tc.args, code, errs)
			continue
		}
		holdGolden(t, tc.golden, fmt.Sprintf("msexp %v", tc.args), out)
	}
}

// progressArgs run every experiment whose solver runs go side by side, Table
// 2's and the memory wall's "nem" failure lines and the fault sweep's stall
// and dead-rank lines included.
var progressArgs = []string{"-scale", "64", "table2", "table3", "table4", "figure3", "twostage", "topology", "faultsweep"}

// TestProgressGolden holds the progress stream to recorded bytes. The
// independent runs of a row go side by side, but each run's lines — its
// announce line, its failure line, its resplit log — reach stderr in list
// order once every earlier run has finished, so the stream reads as if the
// runs went one after another: a run that wrote its lines as they came would
// interleave them.
func TestProgressGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates seven experiments (~5 s)")
	}
	code, _, errs := msexp(progressArgs...)
	if code != 0 {
		t.Fatalf("msexp %v: exit %d, stderr %q", progressArgs, code, errs)
	}
	holdGolden(t, "testdata/progress-scale64.golden", fmt.Sprintf("stderr of msexp %v", progressArgs), errs)
}

// holdGolden compares got with the recorded file, or rewrites the file under
// -update; what names the output in the failure message.
func holdGolden(t *testing.T, golden, what, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		line, g, rec := firstDiff(got, string(want))
		t.Errorf("%s differs from %s at line %d:\n got  %q\n want %q", what, golden, line, g, rec)
	}
}

// firstDiff returns the number of the first line on which two different texts
// differ, with that line of each ("" past the end of the shorter one).
func firstDiff(a, b string) (line int, la, lb string) {
	as, bs := strings.Split(a, "\n"), strings.Split(b, "\n")
	i := 0
	for i < len(as) && i < len(bs) && as[i] == bs[i] {
		i++
	}
	if i < len(as) {
		la = as[i]
	}
	if i < len(bs) {
		lb = bs[i]
	}
	return i + 1, la, lb
}
