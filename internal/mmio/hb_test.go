package mmio

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sparse"
)

func TestParseHBFormat(t *testing.T) {
	cases := map[string]hbFormat{
		"(16I5)":       {16, 5},
		"(8I10)":       {8, 10},
		"(4E20.12)":    {4, 20},
		"(1P4E20.12)":  {4, 20},
		"(1P,4E20.12)": {4, 20},
		"(10F8.2)":     {10, 8},
		"(E15.8)":      {1, 15},
		" (3D25.16) ":  {3, 25},
	}
	for in, want := range cases {
		got, err := parseHBFormat(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got != want {
			t.Fatalf("%q: got %+v, want %+v", in, got, want)
		}
	}
	for _, bad := range []string{"", "()", "(ZZ)", "(I)"} {
		if _, err := parseHBFormat(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// A hand-written RUA file: the 3x3 matrix [[1,0,2],[0,3,0],[4,0,5]] in CSC.
const sampleRUA = `Sample matrix                                                           KEY
             5             1             1             2             0
RUA                         3             3             5             0
(6I5)           (6I5)           (3E20.12)
    1    3    4    6
    1    3    2    1    3
  1.000000000000E+00  4.000000000000E+00  3.000000000000E+00
  2.000000000000E+00  5.000000000000E+00
`

func TestReadHBSample(t *testing.T) {
	m, err := ReadHB(strings.NewReader(sampleRUA))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 3 || m.NNZ() != 5 {
		t.Fatalf("shape %dx%d nnz %d", m.Rows, m.Cols, m.NNZ())
	}
	want := [][]float64{{1, 0, 2}, {0, 3, 0}, {4, 0, 5}}
	for i := range want {
		for j := range want[i] {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

const sampleRSA = `Symmetric sample                                                        KEY
             3             1             1             1             0
RSA                         2             2             2             0
(6I5)           (6I5)           (3E20.12)
    1    3    3
    1    2
  4.000000000000E+00  7.000000000000E+00
`

func TestReadHBSymmetric(t *testing.T) {
	m, err := ReadHB(strings.NewReader(sampleRSA))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 7 || m.At(1, 0) != 7 || m.At(0, 0) != 4 {
		t.Fatal("symmetric expansion wrong")
	}
}

const samplePUA = `Pattern sample                                                          KEY
             2             1             1             0             0
PUA                         2             2             2             0
(6I5)           (6I5)           (3E20.12)
    1    2    3
    2    1
`

func TestReadHBPattern(t *testing.T) {
	m, err := ReadHB(strings.NewReader(samplePUA))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 1 || m.At(0, 1) != 1 {
		t.Fatal("pattern entries wrong")
	}
}

const sampleDExponent = `D exponent                                                              KEY
             3             1             1             1             0
RUA                         1             1             1             0
(6I5)           (6I5)           (1D20.12)
    1    2
    1
  1.500000000000D+02
`

func TestReadHBDExponent(t *testing.T) {
	m, err := ReadHB(strings.NewReader(sampleDExponent))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 150 {
		t.Fatalf("D-exponent value = %v", m.At(0, 0))
	}
}

// hbBadInputs are streams ReadHB must reject, by name. The "ncol" ones
// declare dimensions no file carries: each must fail on its header alone,
// before anything is sized from it.
var hbBadInputs = map[string]string{
	"empty": "",
	"unassembled": `t                                                                       K
 1 1 1 1
RUE  2 2 2 0
(6I5) (6I5) (3E20.12)
`,
	"complex": `t                                                                       K
 1 1 1 1
CUA  2 2 2 0
(6I5) (6I5) (3E20.12)
`,
	"bad type len": `t                                                                       K
 1 1 1 1
R  2 2 2 0
(6I5) (6I5) (3E20.12)
`,
	"truncated pointers": `t                                                                       K
 1 1 1 1 0
RUA  2 2 2 0
(6I5)           (6I5)           (3E20.12)
    1    2
`,
	"ncol overflows a slice": `t                                                                       K
 1 1 1 1 0
RUA  2 9223372036854775807 2 0
(6I5)           (6I5)           (3E20.12)
    1    2
`,
	"ncol 2e8": `t                                                                       K
 1 1 1 1 0
RUA  2 200000000 2 0
(6I5)           (6I5)           (3E20.12)
    1    2
`,
	"ncol 2e9": `t                                                                       K
 1 1 1 1 0
RUA  2 2000000000 2 0
(6I5)           (6I5)           (3E20.12)
    1    2
`,
	"symmetric not square": `t                                                                       K
 1 1 1 1 0
RSA  3 2 2 0
(6I5)           (6I5)           (3E20.12)
    1    2    3
    3    3
  1.0  2.0
`,
	"pointer past nnzero": `t                                                                       K
 1 1 1 1 0
PUA  2 2 2 0
(6I5)           (6I5)
    1    9    3
    1    2
`,
}

func TestReadHBErrors(t *testing.T) {
	for name, in := range hbBadInputs {
		if _, err := ReadHB(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestHBRoundTrip(t *testing.T) {
	a := gen.CageLike(80, 3)
	var buf bytes.Buffer
	if err := WriteHB(&buf, a, "cage-like test matrix", "CAGE80"); err != nil {
		t.Fatal(err)
	}
	back, err := ReadHB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != back.Rows || a.NNZ() != back.NNZ() {
		t.Fatalf("shape changed: %v -> %v", a, back)
	}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			got := back.At(i, a.ColInd[p])
			if d := got - a.Val[p]; d > 1e-11 || d < -1e-11 {
				t.Fatalf("(%d,%d) = %v, want %v", i, a.ColInd[p], got, a.Val[p])
			}
		}
	}
}

func TestHBRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(30)
		cols := 1 + rng.Intn(30)
		co := sparse.NewCOO(rows, cols)
		for k := 0; k < rng.Intn(80); k++ {
			v := rng.NormFloat64()
			if v == 0 {
				v = 1
			}
			co.Append(rng.Intn(rows), rng.Intn(cols), v)
		}
		a := co.ToCSR()
		var buf bytes.Buffer
		if err := WriteHB(&buf, a, "prop", "P"); err != nil {
			return false
		}
		back, err := ReadHB(&buf)
		if err != nil {
			return false
		}
		if back.Rows != rows || back.Cols != cols || back.NNZ() != a.NNZ() {
			return false
		}
		for i := 0; i < rows; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				d := back.At(i, a.ColInd[p]) - a.Val[p]
				if d > 1e-10 || d < -1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHBFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.rua")
	a := gen.Tridiag(12, -1, 4, -1)
	var buf bytes.Buffer
	if err := WriteHB(&buf, a, "tridiagonal", "TRI12"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := ReadHBFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != a.NNZ() {
		t.Fatal("file round trip changed nnz")
	}
	if _, err := ReadHBFile(filepath.Join(dir, "missing.rua")); err == nil {
		t.Fatal("missing file accepted")
	}
}
