package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// parse reads a numeric cell, failing the test on non-numeric content.
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric", cell)
	}
	return v
}

const testScale = 32

func TestTable1Shape(t *testing.T) {
	tab, err := Table1(Config{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(table1Procs) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(table1Procs))
	}
	// Row 0 is the sequential baseline.
	if tab.Rows[0][0] != "1" || tab.Rows[0][2] != "-" {
		t.Fatalf("sequential row malformed: %v", tab.Rows[0])
	}
	seq := parse(t, tab.Rows[0][1])
	var lastFact float64
	for i, row := range tab.Rows[1:] {
		d := parse(t, row[1])
		s := parse(t, row[2])
		a := parse(t, row[3])
		f := parse(t, row[4])
		// The headline claim: both multisplitting variants beat the
		// distributed direct solver at every processor count.
		if s >= d || a >= d {
			t.Fatalf("procs %s: multisplitting (%v/%v) not faster than dSuperLU %v", row[0], s, a, d)
		}
		// Factorization time collapses superlinearly with more processors.
		if i > 0 && f > lastFact {
			t.Fatalf("procs %s: factorization time %v grew from %v", row[0], f, lastFact)
		}
		lastFact = f
		if f > s {
			t.Fatalf("factorization %v exceeds total sync time %v", f, s)
		}
		_ = seq
	}
	// The distributed solver saturates: 20 processors are no better than 8.
	d8 := parse(t, tab.Rows[5][1])
	d20 := parse(t, tab.Rows[9][1])
	if d20 < d8 {
		t.Fatalf("dSuperLU kept scaling: %v at 8 procs, %v at 20", d8, d20)
	}
}

func TestTable2Shape(t *testing.T) {
	tab, err := Table2(Config{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	// First row: 2 processors, everything out of memory (the paper's "nem"
	// boundary below 4 processors).
	first := tab.Rows[0]
	if first[0] != "2" {
		t.Fatalf("first row is %v, want the 2-processor row", first)
	}
	if first[1] != "nem" {
		t.Fatalf("2-processor distributed SuperLU = %q, want nem", first[1])
	}
	// From 4 processors on, everything runs and multisplitting wins.
	for _, row := range tab.Rows[1:] {
		d := parse(t, row[1])
		s := parse(t, row[2])
		if s >= d {
			t.Fatalf("procs %s: sync multisplitting %v not faster than dSuperLU %v", row[0], s, d)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	tab, err := Table3(Config{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	// cage11 on cluster2: everything runs, multisplitting wins.
	r := tab.Rows[0]
	if parse(t, r[3]) >= parse(t, r[2]) {
		t.Fatalf("cage11: sync ms %s not faster than dSuperLU %s", r[3], r[2])
	}
	// cage12 on cluster3: the distributed solver runs out of memory while
	// both multisplitting variants solve the system.
	r = tab.Rows[1]
	if r[2] != "nem" {
		t.Fatalf("cage12 dSuperLU = %q, want nem", r[2])
	}
	parse(t, r[3])
	parse(t, r[4])
	// Generated matrix on cluster3: huge multisplitting advantage, async
	// at least as good as sync (the paper's distant-cluster claim).
	r = tab.Rows[2]
	d, s, a := parse(t, r[2]), parse(t, r[3]), parse(t, r[4])
	if s >= d/5 {
		t.Fatalf("generated matrix: sync %v not clearly faster than dSuperLU %v", s, d)
	}
	if a > s {
		t.Fatalf("generated matrix on distant cluster: async %v slower than sync %v", a, s)
	}
}

func TestTable4Shape(t *testing.T) {
	tab, err := Table4(Config{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	var lastD, lastS float64
	for i, row := range tab.Rows {
		d, s, a := parse(t, row[1]), parse(t, row[2]), parse(t, row[3])
		if i > 0 {
			// More perturbation, slower runs.
			if d <= lastD {
				t.Fatalf("flows %s: dSuperLU %v not slower than %v", row[0], d, lastD)
			}
			if s <= lastS {
				t.Fatalf("flows %s: sync %v not slower than %v", row[0], s, lastS)
			}
			// The robustness claim: under perturbation async beats sync.
			if a >= s {
				t.Fatalf("flows %s: async %v not faster than sync %v", row[0], a, s)
			}
		}
		if s >= d {
			t.Fatalf("flows %s: sync %v not faster than dSuperLU %v", row[0], s, d)
		}
		lastD, lastS = d, s
	}
}

func TestFigure3Shape(t *testing.T) {
	tab, err := Figure3(Config{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(tab.Rows))
	}
	var syncs, facts, iters []float64
	for _, row := range tab.Rows {
		syncs = append(syncs, parse(t, row[1]))
		parse(t, row[2])
		facts = append(facts, parse(t, row[3]))
		iters = append(iters, parse(t, row[4]))
	}
	// Factorization time grows monotonically with overlap.
	for i := 1; i < len(facts); i++ {
		if facts[i] < facts[i-1] {
			t.Fatalf("factorization time fell at overlap %s: %v < %v", tab.Rows[i][0], facts[i], facts[i-1])
		}
	}
	// Iteration count falls (weakly) with overlap.
	for i := 1; i < len(iters); i++ {
		if iters[i] > iters[i-1] {
			t.Fatalf("iterations rose at overlap %s: %v > %v", tab.Rows[i][0], iters[i], iters[i-1])
		}
	}
	if iters[0] < 3*iters[len(iters)-1] {
		t.Fatalf("overlap barely cut iterations: %v -> %v", iters[0], iters[len(iters)-1])
	}
	// The total synchronous time is U-shaped with an interior optimum.
	best := 0
	for i, s := range syncs {
		if s < syncs[best] {
			best = i
		}
	}
	if best == 0 || best == len(syncs)-1 {
		t.Fatalf("optimal overlap %s at a sweep endpoint: %v", tab.Rows[best][0], syncs)
	}
}

func TestFaultSweepShape(t *testing.T) {
	tab, err := FaultSweep(Config{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(faultSweepDrops)+1 {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(faultSweepDrops)+1)
	}
	// Fault-free row: every variant converges (cells numeric and
	// residual-verified by the runner).
	clean := tab.Rows[0]
	parse(t, clean[1])
	parse(t, clean[2])
	asyncClean := parse(t, clean[3])
	itersClean := parse(t, clean[4])
	for i, row := range tab.Rows[1:len(faultSweepDrops)] {
		// Drop rows: the plain synchronous solver stalls on the first lost
		// blocking message — certain at the higher rates; at the lowest rate
		// the run is short enough (~140 WAN messages at test scale) that the
		// seeded loss stream may claim none of them, so that row may be
		// either a stall or a verified time. Retransmission and the
		// fault-tolerant async variant always converge.
		if row[1] != "stall" {
			if i > 0 {
				t.Fatalf("%s: plain sync = %q, want stall", row[0], row[1])
			}
			parse(t, row[1])
		}
		parse(t, row[2])
		parse(t, row[3])
		// Bounded iteration inflation: drops cost extra iterations, not
		// divergence.
		if iters := parse(t, row[4]); iters > 50*itersClean {
			t.Fatalf("%s: async iterations exploded: %v vs %v clean", row[0], iters, itersClean)
		}
	}
	// Crash/restart row: only the fault-tolerant asynchronous solver rides
	// through the outage; sync variants stall or report the dead rank.
	crash := tab.Rows[len(tab.Rows)-1]
	if crash[1] != "stall" && crash[1] != "dead" {
		t.Fatalf("crash row: plain sync = %q", crash[1])
	}
	if crash[2] != "stall" && crash[2] != "dead" {
		t.Fatalf("crash row: sync+retry = %q", crash[2])
	}
	if tm := parse(t, crash[3]); tm < asyncClean {
		t.Logf("note: crashed async run (%v) faster than clean (%v)", tm, asyncClean)
	}
}

func TestTopologyShape(t *testing.T) {
	tab, err := TopologyTable(Config{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	// The modes only change message routing, never the numerics: every mode
	// runs the same iteration count.
	iters := parse(t, tab.Rows[0][2])
	for _, row := range tab.Rows[1:] {
		if it := parse(t, row[2]); it != iters {
			t.Fatalf("%s: %v iterations, direct took %v", row[0], it, iters)
		}
	}
	speedup := func(row []string) float64 {
		return parse(t, strings.TrimSuffix(row[5], "x"))
	}
	for _, row := range tab.Rows[2:] { // gateway, gateway+topo
		// The headline claims: the gateway collapses the WAN traffic to one
		// message per cluster pair per iteration (2 on the two-site grid)...
		if m := parse(t, row[3]); m != 2 {
			t.Fatalf("%s: %v inter-cluster msgs/iter, want 2", row[0], m)
		}
		// ...and converts that into at least the targeted 20% makespan
		// reduction over the direct plan (measured: ~1.6-1.7x).
		if s := speedup(row); s < 1.25 {
			t.Fatalf("%s: speedup %vx, want >= 1.25x", row[0], s)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T: demo", "long-column", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,long-column\n1,2\n") {
		t.Fatalf("CSV wrong:\n%s", buf.String())
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"table1", "1", "table2", "table3", "table4", "figure3", "fig3", "faultsweep", "faults", "utilization", "util", "windowed", "window", "topology", "topo", "twostage", "two-stage", "adaptive", "adapt"} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if len(All()) != 11 {
		t.Fatalf("All() has %d entries", len(All()))
	}
}

func TestWorkloadSizes(t *testing.T) {
	cfg := Config{Scale: 16}
	if n := Cage10Like(cfg).Rows; n != 11397/16 {
		t.Fatalf("cage10 rows = %d", n)
	}
	if n := Cage11Like(cfg).Rows; n != 39082/16 {
		t.Fatalf("cage11 rows = %d", n)
	}
	if n := Cage12Like(cfg).Rows; n != 130228/16 {
		t.Fatalf("cage12 rows = %d", n)
	}
	if n := Gen500k(cfg).Rows; n != 500000/16 {
		t.Fatalf("gen500k rows = %d", n)
	}
	if n := Gen100k(cfg).Rows; n != 100000/16 {
		t.Fatalf("gen100k rows = %d", n)
	}
}

func TestRelResidual(t *testing.T) {
	a := Cage10Like(Config{Scale: 64})
	x := make([]float64, a.Rows)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	// x = 0: residual is exactly ‖b‖/‖b‖ = 1.
	if r := relResidual(a, x, b); r != 1 {
		t.Fatalf("residual = %v, want 1", r)
	}
}

func TestTwoStageTableShape(t *testing.T) {
	tab, err := TwoStageTable(Config{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (exact + k sweep + 3 wall rows)", len(tab.Rows))
	}
	// The exact baseline and every inner count solve on the unlimited grid.
	for _, row := range tab.Rows[:5] {
		parse(t, row[1])
		parse(t, row[2])
		if row[0] != "exact" && row[4] == "-" {
			t.Fatalf("k=%s row recorded no inner sweeps: %v", row[0], row)
		}
	}
	// The memory wall: both direct modes answer nem, two-stage completes.
	if got := tab.Rows[5][1]; got != "nem" {
		t.Fatalf("budgeted dslu = %q, want nem", got)
	}
	if got := tab.Rows[6][1]; got != "nem" {
		t.Fatalf("budgeted exact multisplitting = %q, want nem", got)
	}
	parse(t, tab.Rows[7][1])
}
