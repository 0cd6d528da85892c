// Package mmio reads and writes MatrixMarket files (the exchange format of
// the University of Florida collection the paper draws its cage matrices
// from) plus a simple whitespace-separated vector format. Coordinate and
// array formats are supported, with general, symmetric and skew-symmetric
// qualifiers.
package mmio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// Header describes a MatrixMarket banner line.
type Header struct {
	Object   string // "matrix"
	Format   string // "coordinate" or "array"
	Field    string // "real", "integer" or "pattern"
	Symmetry string // "general", "symmetric", "skew-symmetric"
}

// ReadMatrix parses a MatrixMarket stream into a CSR matrix. Symmetric and
// skew-symmetric storage is expanded; pattern entries get value 1.
func ReadMatrix(r io.Reader) (*sparse.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	h, err := readHeader(sc)
	if err != nil {
		return nil, err
	}
	if h.Object != "matrix" {
		return nil, fmt.Errorf("mmio: unsupported object %q", h.Object)
	}
	switch h.Field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("mmio: unsupported field %q", h.Field)
	}
	line, err := nextDataLine(sc)
	if err != nil {
		return nil, fmt.Errorf("mmio: missing size line: %w", err)
	}
	switch h.Format {
	case "coordinate":
		return readCoordinate(sc, h, line)
	case "array":
		return readArray(sc, h, line)
	default:
		return nil, fmt.Errorf("mmio: unsupported format %q", h.Format)
	}
}

func readHeader(sc *bufio.Scanner) (Header, error) {
	if !sc.Scan() {
		return Header{}, fmt.Errorf("mmio: empty input")
	}
	banner := strings.Fields(strings.ToLower(sc.Text()))
	if len(banner) < 4 || banner[0] != "%%matrixmarket" {
		return Header{}, fmt.Errorf("mmio: bad banner %q", sc.Text())
	}
	h := Header{Object: banner[1], Format: banner[2], Field: banner[3]}
	h.Symmetry = "general"
	if len(banner) >= 5 {
		h.Symmetry = banner[4]
	}
	switch h.Symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return Header{}, fmt.Errorf("mmio: unsupported symmetry %q", h.Symmetry)
	}
	return h, nil
}

func nextDataLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// maxDim bounds a declared dimension. The reader allocates row pointers for
// the size line's dimensions, so a corrupt size line must fail rather than ask
// for gigabytes; the bound is above the largest cage matrix (cage15, 5.2
// million rows).
const maxDim = 1 << 23

// checkSize rejects a size line whose dimensions are negative or above
// maxDim, or not square under a symmetric qualifier (the mirrored entry
// (j,i) must exist).
func checkSize(h Header, rows, cols int, sizeLine string) error {
	switch {
	case rows < 0 || cols < 0:
		return fmt.Errorf("mmio: negative size in %q", sizeLine)
	case rows > maxDim || cols > maxDim:
		return fmt.Errorf("mmio: size %dx%d exceeds the %d limit", rows, cols, maxDim)
	case h.Symmetry != "general" && rows != cols:
		return fmt.Errorf("mmio: %s matrix is %dx%d, not square", h.Symmetry, rows, cols)
	}
	return nil
}

func readCoordinate(sc *bufio.Scanner, h Header, sizeLine string) (*sparse.CSR, error) {
	var rows, cols, nnz int
	if _, err := fmt.Sscan(sizeLine, &rows, &cols, &nnz); err != nil {
		return nil, fmt.Errorf("mmio: bad size line %q: %w", sizeLine, err)
	}
	if nnz < 0 {
		return nil, fmt.Errorf("mmio: negative size in %q", sizeLine)
	}
	if err := checkSize(h, rows, cols, sizeLine); err != nil {
		return nil, err
	}
	co := sparse.NewCOO(rows, cols)
	for k := 0; k < nnz; k++ {
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d/%d: %w", k+1, nnz, err)
		}
		fields := strings.Fields(line)
		want := 3
		if h.Field == "pattern" {
			want = 2
		}
		if len(fields) < want {
			return nil, fmt.Errorf("mmio: entry %q has %d fields, want %d", line, len(fields), want)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("mmio: bad row index %q", fields[0])
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("mmio: bad column index %q", fields[1])
		}
		v := 1.0
		if h.Field != "pattern" {
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: bad value %q", fields[2])
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("mmio: index (%d,%d) outside %dx%d", i, j, rows, cols)
		}
		co.Append(i-1, j-1, v)
		if i != j {
			switch h.Symmetry {
			case "symmetric":
				co.Append(j-1, i-1, v)
			case "skew-symmetric":
				co.Append(j-1, i-1, -v)
			}
		}
	}
	return co.ToCSR(), nil
}

func readArray(sc *bufio.Scanner, h Header, sizeLine string) (*sparse.CSR, error) {
	var rows, cols int
	if _, err := fmt.Sscan(sizeLine, &rows, &cols); err != nil {
		return nil, fmt.Errorf("mmio: bad array size line %q: %w", sizeLine, err)
	}
	if h.Field == "pattern" {
		return nil, fmt.Errorf("mmio: pattern array format is invalid")
	}
	if err := checkSize(h, rows, cols, sizeLine); err != nil {
		return nil, err
	}
	co := sparse.NewCOO(rows, cols)
	read := func(i, j int) error {
		line, err := nextDataLine(sc)
		if err != nil {
			return err
		}
		v, err := strconv.ParseFloat(strings.Fields(line)[0], 64)
		if err != nil {
			return fmt.Errorf("mmio: bad value %q", line)
		}
		if v != 0 {
			co.Append(i, j, v)
		}
		if i != j {
			switch h.Symmetry {
			case "symmetric":
				co.Append(j, i, v)
			case "skew-symmetric":
				co.Append(j, i, -v)
			}
		}
		return nil
	}
	// Column-major order per the MatrixMarket specification; symmetric
	// array files store the lower triangle only.
	for j := 0; j < cols; j++ {
		i0 := 0
		if h.Symmetry != "general" {
			i0 = j
		}
		for i := i0; i < rows; i++ {
			if err := read(i, j); err != nil {
				return nil, err
			}
		}
	}
	return co.ToCSR(), nil
}

// WriteMatrix writes m in coordinate real general format.
func WriteMatrix(w io.Writer, m *sparse.CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.ColInd[p]+1, m.Val[p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixFile reads a MatrixMarket file from disk.
func ReadMatrixFile(path string) (*sparse.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMatrix(f)
}

// WriteMatrixFile writes m to disk in MatrixMarket format.
func WriteMatrixFile(path string, m *sparse.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteMatrix(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadVector reads a whitespace/newline-separated list of floats (comments
// starting with % or # are skipped).
func ReadVector(r io.Reader) ([]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var out []float64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "#") {
			continue
		}
		for _, f := range strings.Fields(line) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: bad vector value %q", f)
			}
			out = append(out, v)
		}
	}
	return out, sc.Err()
}

// WriteVector writes x one value per line.
func WriteVector(w io.Writer, x []float64) error {
	bw := bufio.NewWriter(w)
	for _, v := range x {
		if _, err := fmt.Fprintf(bw, "%.17g\n", v); err != nil {
			return err
		}
	}
	return bw.Flush()
}
