package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/run.golden from the example's current output")

// TestRunGolden runs the example end to end on a 40×40 grid and holds its
// report to recorded bytes: the Poisson2D matrix and all four solves
// (virtual seconds, iterations, errors) are deterministic. Regenerate with
// `go test ./examples/poisson -update` and read the diff.
func TestRunGolden(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 40, 20); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	path := "testdata/run.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
