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

// TestOutOfRangeFlags: a numeric flag out of its range is one diagnostic
// line and usage status 2 before anything runs — not a silent fall-back to
// the default the zero value of experiments.Config stands for. A flag that is
// gone is the flag package's diagnostic and usage text: the solver settings
// an experiment runs with are its own, and msolve is the command that sets
// them.
func TestOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "0"}, "msexp: -scale must be >= 1\n"},
		{[]string{"-scale", "-8"}, "msexp: -scale must be >= 1\n"},
		{[]string{"-window", "-1"}, "msexp: -window must be >= 0\n"},
		{[]string{"-window", "nan"}, "msexp: -window must be >= 0\n"},
		{[]string{"-window", "inf"}, "msexp: -window must be finite\n"},
		{[]string{"-lanes", "1"}, "flag provided but not defined: -lanes\nUsage of msexp:\n"},
		{[]string{"-workers", "-1"}, "msexp: -workers must be >= 0\n"},
		{[]string{"-inner-schedule", "ramp"}, "flag provided but not defined: -inner-schedule\nUsage of msexp:\n"},
		{[]string{"-omega", "1.5"}, "flag provided but not defined: -omega\nUsage of msexp:\n"},
		{[]string{"-precond-band", "8"}, "flag provided but not defined: -precond-band\nUsage of msexp:\n"},
		{[]string{"-adapt"}, "flag provided but not defined: -adapt\nUsage of msexp:\n"},
		{[]string{"-adapt-interval", "5"}, "flag provided but not defined: -adapt-interval\nUsage of msexp:\n"},
		{[]string{"-adapt-hysteresis", "0.05"}, "flag provided but not defined: -adapt-hysteresis\nUsage of msexp:\n"},
		{[]string{"-fault-seed", "7"}, "flag provided but not defined: -fault-seed\nUsage of msexp:\n"},
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
		// A system smaller than the platform reaches core.Launch, which
		// refuses it.
		{[]string{"-quiet", "-csv", "-scale", "1000", "table1"}, []string{"table1 failed", "12 hosts with 1 bands each exceed the 11 unknowns"}},
		// A window far below the run's length: the export refuses the
		// windows past its cap instead of growing until memory runs out.
		{[]string{"-quiet", "-csv", "-scale", "64", "-window", "1e-9", "windowed"}, []string{"windowed failed", "-window 1e-09 needs more than"}},
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

// goldenRun is one scale of the golden harness: the experiments it runs, in
// order, the file holding their CSV tables and, at scale 64, the file holding
// their progress stream.
type goldenRun struct {
	scale            int
	tables, progress string
	names            []string
}

// goldenRuns are the two scales the harness runs. Scale 32 holds Table 3,
// recorded there first, and the two tables whose shape claims fail at scale
// 64: Table 1 (at 8 processors its sync time is above dSuperLU's) and Figure
// 3 (its iterations rise at the last overlap). Appending keeps the file's
// earlier blocks where they were.
var goldenRuns = []goldenRun{
	{64, "testdata/tables-scale64.csv", "testdata/progress-scale64.golden", []string{"table1", "table2", "table3",
		"table4", "figure3", "faultsweep", "utilization", "windowed", "topology", "twostage", "adaptive", "table4fair"}},
	{32, "testdata/tables-scale32.csv", "", []string{"table3", "table1", "figure3"}},
}

// expOutput is what msexp printed for one experiment of a golden run.
type expOutput struct {
	stdout, stderr string
	fail           string // why the run failed ("" = exit 0)
}

// runKey names one experiment of a golden run.
type runKey struct {
	scale int
	name  string
}

// outputs holds each experiment of the golden runs once it has run.
var outputs = map[runKey]*expOutput{}

// goldenOutput returns what `msexp -csv -scale S NAME` printed, running it
// the first time a test asks: every check of an experiment at a scale reads
// that one run, so each experiment runs once per scale per test binary.
// Running msexp once per name gives the bytes of one run over all the names
// (run prints the experiments one after another, each with its own progress
// lines) and splits them per experiment without parsing the CSV. Scale 64
// keeps the progress stream; the other scale runs -quiet, and a quiet run
// must print nothing on stderr.
func goldenOutput(t *testing.T, k runKey) *expOutput {
	t.Helper()
	if testing.Short() {
		t.Skip("regenerates the paper tables (~15 s)")
	}
	o := outputs[k]
	if o == nil {
		args := []string{"-csv", "-scale", fmt.Sprint(k.scale)}
		quiet := k.scale != 64
		if quiet {
			args = append(args, "-quiet")
		}
		args = append(args, k.name)
		code, out, errs := msexp(args...)
		o = &expOutput{stdout: out, stderr: errs}
		if code != 0 || quiet && errs != "" {
			o.fail = fmt.Sprintf("msexp %v: exit %d, stderr %q", args, code, errs)
		}
		outputs[k] = o
	}
	if o.fail != "" {
		t.Fatal(o.fail)
	}
	return o
}

// TestGoldenCoversDefaultRun: every experiment a bare msexp run prints is in
// the scale-64 golden run, and every experiment a shape check reads is in the
// golden run of the scale it reads, so no table of the default run goes
// unchecked and no shape check can fall back to a run of its own.
func TestGoldenCoversDefaultRun(t *testing.T) {
	held := map[runKey]bool{}
	for _, g := range goldenRuns {
		for _, name := range g.names {
			held[runKey{g.scale, name}] = true
		}
	}
	for _, x := range experiments.All() {
		if !held[runKey{64, x.Name}] {
			t.Errorf("default experiment %q is not in %s", x.Name, goldenRuns[0].tables)
		}
	}
	for name, scale := range shapeScale {
		if !held[runKey{scale, name}] {
			t.Errorf("the shape check of %q reads scale %d, whose golden run does not hold it", name, scale)
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
	for _, g := range goldenRuns {
		holdGolden(t, g, g.tables, func(o *expOutput) string { return o.stdout })
	}
}

// TestProgressGolden holds the progress stream of the scale-64 golden run to
// recorded bytes. The independent runs of a row go side by side, but each
// run's lines — its announce line, its failure line, its resplit log — reach
// stderr in list order once every earlier run has finished, so the stream
// reads as if the runs went one after another: a run that wrote its lines as
// they came would interleave them.
func TestProgressGolden(t *testing.T) {
	g := goldenRuns[0]
	holdGolden(t, g, g.progress, func(o *expOutput) string { return o.stderr })
}

// holdGolden compares one stream of a golden run — what part takes from each
// experiment's output, concatenated in run order — with the recorded file,
// or rewrites the file under -update. A mismatch names the experiment whose
// block holds the first differing line.
func holdGolden(t *testing.T, g goldenRun, golden string, part func(*expOutput) string) {
	t.Helper()
	var got strings.Builder
	var ends []int // line count after each experiment's block
	for _, name := range g.names {
		p := part(goldenOutput(t, runKey{g.scale, name}))
		got.WriteString(p)
		n := strings.Count(p, "\n")
		if len(ends) > 0 {
			n += ends[len(ends)-1]
		}
		ends = append(ends, n)
	}
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		line, gl, wl := firstDiff(got.String(), string(want))
		name := "(past the last block)"
		for i, end := range ends {
			if line <= end {
				name = g.names[i]
				break
			}
		}
		t.Errorf("scale %d differs from %s at line %d, in the %s block:\n got  %q\n want %q", g.scale, golden, line, name, gl, wl)
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
