package mmio

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// goodInputs are well-formed MatrixMarket streams, one per format and
// qualifier the reader expands; the Test* functions below check what each
// reads as, and FuzzReadMatrixMarket starts from them and badInputs.
var goodInputs = map[string]string{
	"coordinate general": `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.5
2 2 -1
3 1 4
3 3 1e2
`,
	"coordinate symmetric": `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 3
2 1 5
`,
	"coordinate skew-symmetric": `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 4
`,
	"coordinate pattern": `%%MatrixMarket matrix coordinate pattern general
2 3 2
1 3
2 1
`,
	"array general": `%%MatrixMarket matrix array real general
2 2
1
2
3
4
`,
	"array symmetric": `%%MatrixMarket matrix array real symmetric
2 2
1
7
4
`,
}

// badInputs are malformed streams ReadMatrix must refuse with an error.
var badInputs = map[string]string{
	"empty":                "",
	"bad banner":           "%%NotMatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n",
	"bad object":           "%%MatrixMarket vector coordinate real general\n1 1 1\n",
	"bad field":            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 1\n",
	"bad symmetry":         "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
	"missing size":         "%%MatrixMarket matrix coordinate real general\n",
	"truncated":            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
	"index range":          "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
	"bad value":            "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 abc\n",
	"pattern array":        "%%MatrixMarket matrix array pattern general\n1 1\n1\n",
	"negative size":        "%%MatrixMarket matrix coordinate real general\n-1 2 0\n",
	"short entry":          "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
	"bad row index":        "%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1\n",
	"bad col index":        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1\n",
	"bad array size":       "%%MatrixMarket matrix array real general\nx y\n",
	"non-square symmetric": "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n2 1 1\n",
	"negative array size":  "%%MatrixMarket matrix array real general\n-2 2\n",
	"huge size":            "%%MatrixMarket matrix coordinate real general\n999999999 1 0\n",
}

func TestReadCoordinateGeneral(t *testing.T) {
	m, err := ReadMatrix(strings.NewReader(goodInputs["coordinate general"]))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 3 || m.NNZ() != 4 {
		t.Fatalf("shape %dx%d nnz %d", m.Rows, m.Cols, m.NNZ())
	}
	if m.At(0, 0) != 2.5 || m.At(2, 0) != 4 || m.At(2, 2) != 100 {
		t.Fatal("wrong entries")
	}
}

func TestReadCoordinateSymmetric(t *testing.T) {
	m, err := ReadMatrix(strings.NewReader(goodInputs["coordinate symmetric"]))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 5 || m.At(1, 0) != 5 || m.At(0, 0) != 3 {
		t.Fatal("symmetric expansion wrong")
	}
}

func TestReadCoordinateSkewSymmetric(t *testing.T) {
	m, err := ReadMatrix(strings.NewReader(goodInputs["coordinate skew-symmetric"]))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 4 || m.At(0, 1) != -4 {
		t.Fatal("skew expansion wrong")
	}
}

func TestReadCoordinatePattern(t *testing.T) {
	m, err := ReadMatrix(strings.NewReader(goodInputs["coordinate pattern"]))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 2) != 1 || m.At(1, 0) != 1 {
		t.Fatal("pattern entries wrong")
	}
}

func TestReadArrayGeneral(t *testing.T) {
	m, err := ReadMatrix(strings.NewReader(goodInputs["array general"]))
	if err != nil {
		t.Fatal(err)
	}
	// Column-major: (0,0)=1 (1,0)=2 (0,1)=3 (1,1)=4.
	if m.At(0, 0) != 1 || m.At(1, 0) != 2 || m.At(0, 1) != 3 || m.At(1, 1) != 4 {
		t.Fatal("array order wrong")
	}
}

func TestReadArraySymmetric(t *testing.T) {
	m, err := ReadMatrix(strings.NewReader(goodInputs["array symmetric"]))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(1, 0) != 7 || m.At(0, 1) != 7 || m.At(1, 1) != 4 {
		t.Fatal("symmetric array wrong")
	}
}

func TestReadErrors(t *testing.T) {
	for name, in := range badInputs {
		if _, err := ReadMatrix(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 50, Seed: 5})
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(a, back) {
		t.Fatal("round trip changed the matrix")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		co := sparse.NewCOO(rows, cols)
		for k := 0; k < rng.Intn(60); k++ {
			v := rng.NormFloat64()
			if v == 0 {
				v = 1
			}
			co.Append(rng.Intn(rows), rng.Intn(cols), v)
		}
		a := co.ToCSR()
		var buf bytes.Buffer
		if err := WriteMatrix(&buf, a); err != nil {
			return false
		}
		back, err := ReadMatrix(&buf)
		if err != nil {
			return false
		}
		return sparse.Equal(a, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	a := gen.Tridiag(10, -1, 4, -1)
	if err := WriteMatrixFile(path, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(a, back) {
		t.Fatal("file round trip changed the matrix")
	}
	if _, err := ReadMatrixFile(filepath.Join(dir, "missing.mtx")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestVectorIO(t *testing.T) {
	var buf bytes.Buffer
	x := []float64{1.5, -2, 3e-7}
	if err := WriteVector(&buf, x); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1.5 || got[1] != -2 || got[2] != 3e-7 {
		t.Fatalf("vector = %v", got)
	}
}

func TestReadVectorCommentsAndErrors(t *testing.T) {
	got, err := ReadVector(strings.NewReader("% c\n# c\n1 2\n3\n"))
	if err != nil || len(got) != 3 {
		t.Fatalf("got %v err %v", got, err)
	}
	if _, err := ReadVector(strings.NewReader("1\nxyz\n")); err == nil {
		t.Fatal("bad value accepted")
	}
}
