package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/mmio"
	"repro/internal/sparse"
)

// msgen runs the command in-process and returns its exit status and output.
func msgen(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestRejectedInput: a dimension below 1, an unknown family or an unknown
// format, and a band, row count or margin the dominant generator would
// silently replace or could not make dominant, is one "msgen:" line and exit
// 2 — no panic out of the generators — and the check comes before the output
// file is created.
func TestRejectedInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "cage", "-n", "-3"}, "dimension -3 of a cage matrix: must be at least 1"},
		{[]string{"-kind", "poisson2d", "-nx", "-2"}, "dimension -2 of a poisson2d matrix"},
		{[]string{"-kind", "poisson2d", "-ny", "0"}, "dimension 0 of a poisson2d matrix"},
		{[]string{"-kind", "poisson3d", "-nz", "-1"}, "dimension -1 of a poisson3d matrix"},
		{[]string{"-kind", "tridiag", "-n", "-1"}, "dimension -1 of a tridiag matrix"},
		{[]string{"-kind", "dominant", "-n", "-5"}, "dimension -5 of a dominant matrix"},
		{[]string{"-n", "0"}, "dimension 0 of a dominant matrix"},
		{[]string{"-kind", "bogus"}, `unknown kind "bogus" (want cage, dominant, poisson2d, poisson3d, tridiag)`},
		{[]string{"-format", "bogus"}, `unknown format "bogus" (want hb, mm)`},
		{[]string{"-kind", "dominant", "-band", "0"}, "-band 0: must be at least 1"},
		{[]string{"-perrow", "-2"}, "-perrow -2: must be at least 1"},
		{[]string{"-kind", "dominant", "-margin", "-1"}, "-margin -1: must be finite and > 0"},
		{[]string{"-margin", "0"}, "-margin 0: must be finite and > 0"},
		{[]string{"-margin", "nan"}, "-margin NaN: must be finite and > 0"},
		{[]string{"-margin", "inf"}, "-margin +Inf: must be finite and > 0"},
	} {
		target := filepath.Join(t.TempDir(), "f.mtx")
		code, out, errs := msgen(append(tc.args, "-o", target)...)
		if code != 2 || out != "" {
			t.Errorf("msgen %v: exit %d, stdout %q; want usage status 2 and no output", tc.args, code, out)
		}
		if !strings.HasPrefix(errs, "msgen: ") || !strings.Contains(errs, tc.want) || strings.Count(errs, "\n") != 1 {
			t.Errorf("msgen %v: diagnostic %q, want one msgen: line with %q", tc.args, errs, tc.want)
		}
		if _, err := os.Stat(target); !os.IsNotExist(err) {
			t.Errorf("msgen %v: left %s behind (stat: %v)", tc.args, target, err)
		}
	}
}

// TestRoundTrip: a MatrixMarket and a Harwell-Boeing file read back as the
// generator's matrix, and the report line names what was written.
func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		file string
		args []string
		want *sparse.CSR
	}{
		{"a.mtx", []string{"-kind", "dominant", "-n", "300", "-band", "8", "-seed", "3"},
			gen.DiagDominant(gen.DiagDominantOpts{N: 300, Band: 8, PerRow: 6, Margin: 0.5, Seed: 3})},
		{"a.rua", []string{"-kind", "poisson2d", "-nx", "9", "-ny", "7", "-format", "hb"}, gen.Poisson2D(9, 7)},
	} {
		target := filepath.Join(t.TempDir(), tc.file)
		code, out, errs := msgen(append(tc.args, "-o", target)...)
		if code != 0 || errs != "" {
			t.Fatalf("msgen %v: exit %d, stderr %q", tc.args, code, errs)
		}
		want := tc.want
		if report := fmt.Sprintf("wrote %dx%d matrix with %d nonzeros to %s\n", want.Rows, want.Cols, want.NNZ(), target); out != report {
			t.Errorf("msgen %v: stdout %q, want %q", tc.args, out, report)
		}
		got, err := mmio.ReadMatrixAuto(target)
		if err != nil {
			t.Fatalf("msgen %v: %v", tc.args, err)
		}
		if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
			t.Fatalf("msgen %v: read back %dx%d with %d nonzeros", tc.args, got.Rows, got.Cols, got.NNZ())
		}
		for i := 0; i < want.Rows; i++ {
			for p := want.RowPtr[i]; p < want.RowPtr[i+1]; p++ {
				if d := got.At(i, want.ColInd[p]) - want.Val[p]; d > 1e-11 || d < -1e-11 {
					t.Fatalf("msgen %v: (%d,%d) reads back as %v, want %v", tc.args, i, want.ColInd[p], got.At(i, want.ColInd[p]), want.Val[p])
				}
			}
		}
	}
}
