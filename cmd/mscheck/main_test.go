package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/mmio"
	"repro/internal/sparse"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the command's current output")

// mscheck runs the command in-process on matrix a, written to a fresh
// directory, and returns its exit status and output.
func mscheck(t *testing.T, a *sparse.CSR, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	matrix := filepath.Join(t.TempDir(), "a.mtx")
	if err := mmio.WriteMatrixFile(matrix, a); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	code = run(append([]string{"-matrix", matrix}, args...), &out, &errw)
	return code, out.String(), errw.String()
}

// TestGoldenReports holds the three verdicts byte for byte: a symmetric
// dominant matrix whose estimates all stabilize below 1 (GUARANTEED, both
// conditions, with the topology block), a matrix whose splittings violate the
// hypothesis, and the dominant matrix again under -iters 1 — an estimate
// below 1 that one step cannot stabilize must not read as a guarantee.
// Regenerate with `go test ./cmd/mscheck -update` and read the diff.
func TestGoldenReports(t *testing.T) {
	dominant := gen.Tridiag(60, -1, 4, -1)
	for _, tc := range []struct {
		name  string
		a     *sparse.CSR
		args  []string
		holds []string // what the golden must say, whoever records it
		lacks string
	}{
		{"guaranteed", dominant, []string{"-bands", "4", "-abs", "-cluster", "cluster3"},
			[]string{"synchronous multisplitting: convergence GUARANTEED", "asynchronous multisplitting: convergence GUARANTEED"}, "NOT ESTABLISHED"},
		{"violated", gen.Tridiag(60, -3, 1, -3), []string{"-bands", "3"},
			[]string{"VIOLATED", "synchronous multisplitting: Theorem 1 hypothesis violated"}, "GUARANTEED"},
		{"not-established", dominant, []string{"-bands", "4", "-abs", "-iters", "1"},
			[]string{"NOT ESTABLISHED", "synchronous multisplitting: not established", "asynchronous multisplitting: not established"}, "GUARANTEED"},
	} {
		code, out, errs := mscheck(t, tc.a, tc.args...)
		if code != 0 || errs != "" {
			t.Errorf("%s: exit %d, stderr %q", tc.name, code, errs)
			continue
		}
		for _, s := range tc.holds {
			if !strings.Contains(out, s) {
				t.Errorf("%s: report lacks %q:\n%s", tc.name, s, out)
			}
		}
		if strings.Contains(out, tc.lacks) {
			t.Errorf("%s: report says %q:\n%s", tc.name, tc.lacks, out)
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

// TestRejectedInput: a cap or a band count below 1 (under -iters 0 every
// estimate used to read 0.000000 OK) and a missing -matrix are one "mscheck:"
// line and exit 2; an unreadable matrix or an unknown platform is exit 1.
func TestRejectedInput(t *testing.T) {
	a := gen.Tridiag(20, -1, 4, -1)
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-iters", "0"}, 2},
		{[]string{"-iters", "-5"}, 2},
		{[]string{"-bands", "0"}, 2},
		{[]string{"-bands", "-1", "-abs"}, 2},
		{[]string{"-bands", "21"}, 1},
		{[]string{"-cluster", "cluster9"}, 1},
	} {
		code, out, errs := mscheck(t, a, tc.args...)
		if code != tc.code {
			t.Errorf("mscheck %v: exit %d, want %d", tc.args, code, tc.code)
		}
		if strings.Contains(out, "Theorem 1 check") {
			t.Errorf("mscheck %v: printed a report:\n%s", tc.args, out)
		}
		if !strings.HasPrefix(errs, "mscheck: ") || strings.Count(errs, "\n") != 1 {
			t.Errorf("mscheck %v: diagnostic %q, want one mscheck: line", tc.args, errs)
		}
	}
	if code, _, _ := mscheck(t, a, "-no-such-flag"); code != 2 {
		t.Errorf("mscheck -no-such-flag: exit %d, want 2", code)
	}
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 2 || errw.String() != "mscheck: -matrix is required\n" || out.Len() != 0 {
		t.Errorf("mscheck without -matrix: exit %d, stdout %q, stderr %q", code, out.String(), errw.String())
	}
	if code := run([]string{"-matrix", filepath.Join(t.TempDir(), "missing.mtx")}, &out, &errw); code != 1 {
		t.Errorf("mscheck on a missing file: exit %d, want 1", code)
	}
}
