package experiments

import (
	"bytes"
	"strings"
	"testing"
)

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
