package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// testScale shrinks every workload so the whole suite takes seconds.
const testScale = 16

// TestWorkloadsSmall runs every workload's untraced and traced pass at 1/16
// size: the fewest repetitions a run makes, every output check on, every
// metric present.
func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runWorkload(w, 1, 0.01, testScale)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("untraced pass failed: %v", res.Errors)
			}
			if want := (minReps + w.instances - 1) / w.instances * w.instances; res.Reps != want {
				t.Errorf("%d repetitions, want %d: the fewest whole rounds over %d instances with at least %d", res.Reps, want, w.instances, minReps)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", d.Name, v, d.Unit)
				}
			}

			dir := t.TempDir()
			tr := traceWorkload(w, 1, 0.01, testScale, dir)
			if !tr.Correct || tr.Failed != 0 {
				t.Fatalf("traced pass failed: %v", tr.Errors)
			}
			if len(tr.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(tr.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if v, ok := tr.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("per-layer metric %s = %+v, want unit %s", d.Name, v, d.Unit)
				}
			}
			if tr.Metrics["vgrid.commits"].Value <= 0 && w.name != "paper_table3" {
				t.Error("no commits counted")
			}
			data, err := os.ReadFile(filepath.Join(dir, "trace_"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("span file: %d spans, err %v", len(spans), err)
			}
		})
	}
}

// TestSeedDrivesInputs: another seed gives other inputs of the same size,
// and the same seed the same inputs.
func TestSeedDrivesInputs(t *testing.T) {
	w := findWorkload("wan_async_narrowband")
	a, b, c := w.gen(subSeed(1, 0), testScale), w.gen(subSeed(2, 0), testScale), w.gen(subSeed(1, 0), testScale)
	if a.a.Rows != b.a.Rows {
		t.Errorf("size depends on the seed: %d vs %d rows", a.a.Rows, b.a.Rows)
	}
	same := func(x, y *instance) bool {
		if x.a.NNZ() != y.a.NNZ() {
			return false
		}
		for i, v := range x.a.Val {
			if v != y.a.Val[i] || x.a.ColInd[i] != y.a.ColInd[i] {
				return false
			}
		}
		return true
	}
	if same(a, b) {
		t.Error("seeds 1 and 2 generated the same matrix")
	}
	if !same(a, c) {
		t.Error("seed 1 generated two different matrices")
	}
}

// TestReference: the reference unit allocates nothing, or it would count in
// alloc_mb_per_rep, and a slot runs whole units for at least its length.
func TestReference(t *testing.T) {
	ref := newReference()
	defer ref.close()
	if n := testing.AllocsPerRun(3, ref.unit); n != 0 {
		t.Errorf("the reference unit allocates %v times a run", n)
	}
	t0 := time.Now()
	per := ref.sample(0)
	if el := time.Since(t0); el < refMinSlot || !(per > 0) || per > el.Seconds() {
		t.Errorf("a slot of %v ran %v and returned %v s a unit", refMinSlot, el, per)
	}
}

// TestMain loads the contract the way main does; the tests run in bench/.
func TestMain(m *testing.M) {
	if _, err := loadContract(filepath.Join("..", "BENCHMARK.json")); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestContract: BENCHMARK.json stays within the driver's limits on names,
// units and counts. That it lists exactly the workloads the program has is
// loadContract's check, that it lists exactly the metrics the program prints
// TestWorkloadsSmall's.
func TestContract(t *testing.T) {
	c, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(c.Workloads) < 2 || len(c.Workloads) > 8 {
		t.Errorf("%d workloads (2 to 8 allowed)", len(c.Workloads))
	}
	seen := map[string]bool{}
	for _, w := range c.Workloads {
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad or repeated name, or a why line empty or over 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, defs []metricDef, limit int, bounded bool) {
		if len(defs) < 1 || len(defs) > limit {
			t.Errorf("%s: %d metrics (1 to %d allowed)", kind, len(defs), limit)
		}
		for _, d := range defs {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s metric %q: bad or repeated name, unit %q or direction %q", kind, d.Name, d.Unit, d.Better)
			}
			seen[d.Name] = true
			if bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("%s metric %q: bound %v (end-to-end: above 0 and at most 0.25; per-layer: none)", kind, d.Name, d.Bound)
			}
		}
	}
	check("end-to-end", c.EndToEnd, 16, true)
	check("per-layer", c.PerLayer, 128, false)

	setup := false
	for _, d := range c.EndToEnd {
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in s, lower is better")
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 || len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("run_seconds %d or paths %v out of contract", c.RunSeconds, c.Paths)
	}
}

func mkSide(vals ...float64) side {
	s := side{vals: vals}
	s.q1, s.med, s.q3 = quartiles(vals)
	return s
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	for _, tc := range []struct {
		name     string
		old, new side
		want     string
	}{
		{"same", mkSide(1.00, 1.01, 1.02), mkSide(1.01, 1.02, 1.03), "same"},
		{"worse", mkSide(1.00, 1.01, 1.02), mkSide(1.20, 1.21, 1.22), "worse"},
		{"better", mkSide(1.00, 1.01, 1.02), mkSide(0.80, 0.81, 0.82), "better"},
		{"noisy and overlapping", mkSide(0.8, 1.0, 1.3), mkSide(0.9, 1.1, 1.4), "unresolved"},
		{"noisy but every run better", mkSide(2.0, 2.4, 2.9), mkSide(0.8, 1.0, 1.3), "better"},
		{"one run a side", mkSide(1.00), mkSide(1.50), "unresolved"},
		{"two runs on one side", mkSide(1.00, 1.01, 1.02), mkSide(1.50, 1.51), "unresolved"},
	} {
		if got := verdict(d, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestSeedVerdict(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, new side
		want     string
		differ   int
	}{
		{"identical", mkSide(1, 2, 3), mkSide(1, 2, 3), "same", 0},
		{"within the bound", mkSide(1, 2, 3), mkSide(1, 2.01, 3), "same", 1},
		{"one seed worse, median unmoved", mkSide(1, 2, 3), mkSide(1, 2, 3.1), "worse", 1},
		{"one better one worse", mkSide(1, 2, 3), mkSide(0.9, 2, 3.1), "worse", 2},
		{"better", mkSide(1, 2, 3), mkSide(0.9, 2, 3), "better", 1},
	} {
		if got, differ := seedVerdict(tc.old, tc.new, 0.01); got != tc.want || differ != tc.differ {
			t.Errorf("%s: verdict %q with %d seeds differing, want %q with %d", tc.name, got, differ, tc.want, tc.differ)
		}
	}
}

// TestCompareFiles: the gate fails, or refuses to judge, where the two files
// do not hold the same measurement.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	run := func(workload string, seed int64, wall float64) *runResult {
		m := map[string]value{}
		for _, d := range endToEnd {
			m[d.Name] = value{Value: 1, Unit: d.Unit}
		}
		m["wall_s"] = value{Value: wall, Unit: "s"}
		return &runResult{Workload: workload, Seed: seed, Correct: true, Attempted: 10, Metrics: m}
	}
	file := func(name string, seconds float64, runs ...*runResult) string {
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, &resultFile{Meta: meta{Seconds: seconds}, Runs: runs}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	three := func(workload string, wall float64) []*runResult {
		return []*runResult{run(workload, 1, wall), run(workload, 2, wall*1.01), run(workload, 3, wall*1.02)}
	}
	both := append(three("grid1000_events", 1), three("paper_table3", 1)...)
	base := file("base.json", 10, both...)

	for _, tc := range []struct {
		name    string
		path    string
		ok, err bool
	}{
		{"itself", base, true, false},
		{"slower", file("slow.json", 10, append(three("grid1000_events", 1.5), three("paper_table3", 1)...)...), false, false},
		{"a workload dropped", file("dropped.json", 10, three("grid1000_events", 1)...), false, false},
		{"another run length", file("short.json", 1, both...), false, true},
		{"other seeds", file("seeds.json", 10, append(three("grid1000_events", 1), run("paper_table3", 1, 1), run("paper_table3", 2, 1), run("paper_table3", 4, 1))...), false, true},
	} {
		ok, err := compareFiles(io.Discard, base, tc.path)
		if ok != tc.ok || (err != nil) != tc.err {
			t.Errorf("%s: ok %v, error %v; want ok %v, error %v", tc.name, ok, err, tc.ok, tc.err)
		}
	}
	// The dropped workload fails the gate from either side.
	if ok, err := compareFiles(io.Discard, file("only.json", 10, three("grid1000_events", 1)...), base); ok || err != nil {
		t.Errorf("a workload only the new file has: ok %v, error %v; want not ok, no error", ok, err)
	}
}
