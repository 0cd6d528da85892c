package mmio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// checkCSR reports the first way m breaks the sparse package's invariants:
// len(RowPtr) = Rows+1 from 0 to len(ColInd) = len(Val), monotone, and each
// row's columns strictly increasing inside [0, Cols).
func checkCSR(m *sparse.CSR) error {
	if m.Rows < 0 || m.Cols < 0 || len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("%dx%d with %d row pointers", m.Rows, m.Cols, len(m.RowPtr))
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != len(m.ColInd) || len(m.ColInd) != len(m.Val) {
		return fmt.Errorf("row pointers span [%d,%d] over %d columns and %d values",
			m.RowPtr[0], m.RowPtr[m.Rows], len(m.ColInd), len(m.Val))
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("RowPtr decreases at row %d", i)
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if j := m.ColInd[p]; j < 0 || j >= m.Cols || (p > m.RowPtr[i] && j <= m.ColInd[p-1]) {
				return fmt.Errorf("row %d: column %d at position %d out of range or order", i, j, p)
			}
		}
	}
	return nil
}

// FuzzReadMatrixMarket: no input makes ReadMatrix panic; it returns an error
// or a matrix that holds the CSR invariants, and a matrix it returns reads
// back the same after WriteMatrix. Seeded with every stream the reader tests
// use and one writer output:
//
//	go test -run '^$' -fuzz FuzzReadMatrixMarket -fuzztime 30s -parallel 1 ./internal/mmio
func FuzzReadMatrixMarket(f *testing.F) {
	for _, in := range goodInputs {
		f.Add(in)
	}
	for _, in := range badInputs {
		f.Add(in)
	}
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, gen.CageLike(12, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ReadMatrix(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := checkCSR(m); err != nil {
			t.Fatalf("ReadMatrix returned a broken matrix: %v", err)
		}
		var out bytes.Buffer
		if err := WriteMatrix(&out, m); err != nil {
			t.Fatal(err)
		}
		back, err := ReadMatrix(&out)
		if err != nil {
			t.Fatalf("written matrix does not read back: %v", err)
		}
		if back.Rows != m.Rows || back.Cols != m.Cols || back.NNZ() != m.NNZ() {
			t.Fatalf("round trip %v, read %v", back, m)
		}
	})
}

// FuzzReadHarwellBoeing: no input makes ReadHB panic or size anything from a
// header the data does not bear out; it returns an error or a matrix that
// holds the CSR invariants. Seeded with every stream the reader tests use
// (the oversized headers among them) and one writer output:
//
//	go test -run '^$' -fuzz FuzzReadHarwellBoeing -fuzztime 30s -parallel 1 ./internal/mmio
func FuzzReadHarwellBoeing(f *testing.F) {
	for _, in := range []string{sampleRUA, sampleRSA, samplePUA, sampleDExponent} {
		f.Add(in)
	}
	for _, in := range hbBadInputs {
		f.Add(in)
	}
	var buf bytes.Buffer
	if err := WriteHB(&buf, gen.CageLike(12, 1), "cage-like", "CAGE12"); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ReadHB(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := checkCSR(m); err != nil {
			t.Fatalf("ReadHB returned a broken matrix: %v", err)
		}
	})
}
