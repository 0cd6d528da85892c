// Harwell-Boeing format support. The paper's cage matrices ship from the
// UF collection as .rua files (Real Unsymmetric Assembled); this file
// implements a reader for assembled real/pattern HB matrices (RUA, RSA,
// PUA, PSA and zero-symmetric variants) and a writer emitting standard RUA.
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

// hbFormat is a parsed Fortran edit descriptor like (16I5) or (1P,4E20.12).
type hbFormat struct {
	perLine int
	width   int
}

// parseHBFormat extracts the repeat count and field width from a Fortran
// format string. Scale factors (1P) and commas are tolerated.
func parseHBFormat(s string) (hbFormat, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	t = strings.TrimPrefix(t, "(")
	t = strings.TrimSuffix(t, ")")
	// Drop scale-factor prefixes like "1P" or "1P," and surrounding commas.
	for {
		t = strings.TrimSpace(strings.TrimPrefix(t, ","))
		if i := strings.IndexAny(t, "PX"); i >= 0 && i < strings.IndexAny(t+"IEFDG", "IEFDG") {
			t = t[i+1:]
			continue
		}
		break
	}
	li := strings.IndexAny(t, "IEFDG")
	if li < 0 {
		return hbFormat{}, fmt.Errorf("mmio: unsupported HB format %q", s)
	}
	count := 1
	if li > 0 {
		c, err := strconv.Atoi(strings.TrimSpace(t[:li]))
		if err != nil {
			return hbFormat{}, fmt.Errorf("mmio: bad repeat count in HB format %q", s)
		}
		count = c
	}
	rest := t[li+1:]
	if di := strings.IndexByte(rest, '.'); di >= 0 {
		rest = rest[:di]
	}
	w, err := strconv.Atoi(strings.TrimSpace(rest))
	if err != nil || w <= 0 {
		return hbFormat{}, fmt.Errorf("mmio: bad width in HB format %q", s)
	}
	return hbFormat{perLine: count, width: w}, nil
}

// hbFields cuts a fixed-width line into trimmed fields, skipping blanks.
func (f hbFormat) fields(line string) []string {
	var out []string
	for i := 0; i < len(line); i += f.width {
		end := i + f.width
		if end > len(line) {
			end = len(line)
		}
		s := strings.TrimSpace(line[i:end])
		if s != "" {
			out = append(out, s)
		}
		if len(out) == f.perLine {
			break
		}
	}
	return out
}

// readHBNumbers reads exactly n numeric tokens laid out under format f. The
// list grows with the lines read, not with n: a header's count is only
// trusted once the data bears it out.
func readHBNumbers(sc *bufio.Scanner, f hbFormat, n int, what string) ([]string, error) {
	var out []string
	for len(out) < n {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("mmio: HB %s section truncated: have %d of %d", what, len(out), n)
		}
		fs := f.fields(sc.Text())
		if len(fs) == 0 {
			return nil, fmt.Errorf("mmio: blank line inside HB %s section", what)
		}
		out = append(out, fs...)
	}
	return out[:n], nil
}

// ReadHB parses an assembled Harwell-Boeing matrix (types ?UA, ?SA, ?ZA
// with ? in {R, P}; symmetric and skew storage is expanded).
func ReadHB(r io.Reader) (*sparse.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	// Header line 1: title + key (ignored).
	if !sc.Scan() {
		return nil, fmt.Errorf("mmio: empty HB input")
	}
	// Header line 2: card counts.
	if !sc.Scan() {
		return nil, fmt.Errorf("mmio: HB header truncated")
	}
	counts := strings.Fields(sc.Text())
	if len(counts) < 4 {
		return nil, fmt.Errorf("mmio: bad HB card-count line %q", sc.Text())
	}
	rhscrd := 0
	if len(counts) >= 5 {
		if v, err := strconv.Atoi(counts[4]); err == nil {
			rhscrd = v
		}
	}
	valcrd, err := strconv.Atoi(counts[3])
	if err != nil {
		return nil, fmt.Errorf("mmio: bad VALCRD %q", counts[3])
	}
	// Header line 3: type and dimensions.
	if !sc.Scan() {
		return nil, fmt.Errorf("mmio: HB header truncated")
	}
	line3 := sc.Text()
	fs := strings.Fields(line3)
	if len(fs) < 4 {
		return nil, fmt.Errorf("mmio: bad HB type line %q", line3)
	}
	mxtype := strings.ToUpper(fs[0])
	if len(mxtype) != 3 {
		return nil, fmt.Errorf("mmio: bad HB matrix type %q", mxtype)
	}
	valType, symType, asmType := mxtype[0], mxtype[1], mxtype[2]
	if asmType != 'A' {
		return nil, fmt.Errorf("mmio: unassembled (elemental) HB matrices not supported")
	}
	switch valType {
	case 'R', 'P':
	default:
		return nil, fmt.Errorf("mmio: unsupported HB value type %c (only real and pattern)", valType)
	}
	switch symType {
	case 'U', 'S', 'Z', 'R':
	default:
		return nil, fmt.Errorf("mmio: unsupported HB symmetry %c", symType)
	}
	nrow, err := strconv.Atoi(fs[1])
	if err != nil {
		return nil, fmt.Errorf("mmio: bad NROW %q", fs[1])
	}
	ncol, err := strconv.Atoi(fs[2])
	if err != nil {
		return nil, fmt.Errorf("mmio: bad NCOL %q", fs[2])
	}
	nnz, err := strconv.Atoi(fs[3])
	if err != nil {
		return nil, fmt.Errorf("mmio: bad NNZERO %q", fs[3])
	}
	if nrow < 0 || ncol < 0 || nnz < 0 {
		return nil, fmt.Errorf("mmio: negative HB dimension")
	}
	h := Header{Symmetry: "general"}
	switch symType {
	case 'S':
		h.Symmetry = "symmetric"
	case 'Z':
		h.Symmetry = "skew-symmetric"
	}
	if err := checkSize(h, nrow, ncol, line3); err != nil {
		return nil, err
	}
	// Header line 4: formats.
	if !sc.Scan() {
		return nil, fmt.Errorf("mmio: HB header truncated")
	}
	line4 := sc.Text()
	ptrFmtStr, indFmtStr, valFmtStr := hbSplitFormats(line4)
	ptrFmt, err := parseHBFormat(ptrFmtStr)
	if err != nil {
		return nil, err
	}
	indFmt, err := parseHBFormat(indFmtStr)
	if err != nil {
		return nil, err
	}
	var valFmt hbFormat
	if valType == 'R' && valcrd > 0 {
		valFmt, err = parseHBFormat(valFmtStr)
		if err != nil {
			return nil, err
		}
	}
	// Optional header line 5 (right-hand side descriptor): skip.
	if rhscrd > 0 {
		if !sc.Scan() {
			return nil, fmt.Errorf("mmio: HB header truncated at RHS descriptor")
		}
	}

	ptrs, err := readHBNumbers(sc, ptrFmt, ncol+1, "pointer")
	if err != nil {
		return nil, err
	}
	inds, err := readHBNumbers(sc, indFmt, nnz, "index")
	if err != nil {
		return nil, err
	}
	var vals []string
	if valType == 'R' && valcrd > 0 {
		vals, err = readHBNumbers(sc, valFmt, nnz, "value")
		if err != nil {
			return nil, err
		}
	}

	colPtr := make([]int, ncol+1)
	for i, s := range ptrs {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("mmio: bad HB pointer %q", s)
		}
		colPtr[i] = v - 1 // 1-based
	}
	if colPtr[0] != 0 || colPtr[ncol] != nnz {
		return nil, fmt.Errorf("mmio: HB pointers span [%d,%d], want [0,%d]", colPtr[0], colPtr[ncol], nnz)
	}
	// Every pointer is checked before any is used: a column running past
	// NNZERO would index beyond the row indices read.
	for j := 0; j < ncol; j++ {
		if colPtr[j] > colPtr[j+1] {
			return nil, fmt.Errorf("mmio: HB pointers not monotone at column %d", j)
		}
	}
	co := sparse.NewCOO(nrow, ncol)
	for j := 0; j < ncol; j++ {
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			i, err := strconv.Atoi(inds[p])
			if err != nil {
				return nil, fmt.Errorf("mmio: bad HB row index %q", inds[p])
			}
			i-- // 1-based
			if i < 0 || i >= nrow {
				return nil, fmt.Errorf("mmio: HB row index %d outside [1,%d]", i+1, nrow)
			}
			v := 1.0
			if vals != nil {
				s := strings.ReplaceAll(strings.ReplaceAll(vals[p], "D", "E"), "d", "e")
				v, err = strconv.ParseFloat(s, 64)
				if err != nil {
					return nil, fmt.Errorf("mmio: bad HB value %q", vals[p])
				}
			}
			co.Append(i, j, v)
			if i != j {
				switch symType {
				case 'S':
					co.Append(j, i, v)
				case 'Z':
					co.Append(j, i, -v)
				}
				// 'R' (rectangular) and 'U' store everything explicitly.
			}
		}
	}
	return co.ToCSR(), nil
}

// hbSplitFormats extracts the parenthesized format groups from header line 4.
func hbSplitFormats(line string) (ptr, ind, val string) {
	var groups []string
	depth, start := 0, -1
	for i, r := range line {
		switch r {
		case '(':
			if depth == 0 {
				start = i
			}
			depth++
		case ')':
			depth--
			if depth == 0 && start >= 0 {
				groups = append(groups, line[start:i+1])
				start = -1
			}
		}
	}
	for len(groups) < 3 {
		groups = append(groups, "(1E20.12)")
	}
	return groups[0], groups[1], groups[2]
}

// WriteHB writes m as a Real Unsymmetric Assembled (.rua) Harwell-Boeing
// file with the given title and key (both truncated/padded to spec widths).
func WriteHB(w io.Writer, m *sparse.CSR, title, key string) error {
	csc := m.ToCSC()
	nnz := csc.NNZ()
	const (
		ptrPer, ptrW = 8, 10
		indPer, indW = 8, 10
		valPer, valW = 4, 20
	)
	lines := func(n, per int) int {
		if n == 0 {
			return 0
		}
		return (n + per - 1) / per
	}
	ptrcrd := lines(csc.Cols+1, ptrPer)
	indcrd := lines(nnz, indPer)
	valcrd := lines(nnz, valPer)
	bw := bufio.NewWriter(w)
	if len(title) > 72 {
		title = title[:72]
	}
	if len(key) > 8 {
		key = key[:8]
	}
	fmt.Fprintf(bw, "%-72s%-8s\n", title, key)
	fmt.Fprintf(bw, "%14d%14d%14d%14d%14d\n", ptrcrd+indcrd+valcrd, ptrcrd, indcrd, valcrd, 0)
	fmt.Fprintf(bw, "%-14s%14d%14d%14d%14d\n", "RUA", csc.Rows, csc.Cols, nnz, 0)
	fmt.Fprintf(bw, "%-16s%-16s%-20s%-20s\n", fmt.Sprintf("(%dI%d)", ptrPer, ptrW), fmt.Sprintf("(%dI%d)", indPer, indW), fmt.Sprintf("(%dE%d.12)", valPer, valW), "")
	writeInts := func(vals []int, per, width int, plusOne bool) {
		for i, v := range vals {
			if plusOne {
				v++
			}
			fmt.Fprintf(bw, "%*d", width, v)
			if (i+1)%per == 0 || i == len(vals)-1 {
				fmt.Fprintln(bw)
			}
		}
	}
	writeInts(csc.ColPtr, ptrPer, ptrW, true)
	writeInts(csc.RowInd, indPer, indW, true)
	for i, v := range csc.Val {
		fmt.Fprintf(bw, "%*.12E", valW, v)
		if (i+1)%valPer == 0 || i == len(csc.Val)-1 {
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}

// ReadMatrixAuto loads a matrix from disk, detecting the format: files with
// Harwell-Boeing extensions (.rua, .rsa, .pua, .psa, .hb) or without a
// MatrixMarket banner are parsed as Harwell-Boeing, everything else as
// MatrixMarket.
func ReadMatrixAuto(path string) (*sparse.CSR, error) {
	lower := strings.ToLower(path)
	for _, ext := range []string{".rua", ".rsa", ".pua", ".psa", ".hb"} {
		if strings.HasSuffix(lower, ext) {
			return ReadHBFile(path)
		}
	}
	if strings.HasSuffix(lower, ".mtx") || strings.HasSuffix(lower, ".mm") {
		return ReadMatrixFile(path)
	}
	// Sniff the banner.
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, _ := br.Peek(14)
	if strings.HasPrefix(strings.ToLower(string(head)), "%%matrixmarket") {
		return ReadMatrix(br)
	}
	return ReadHB(br)
}

// ReadHBFile reads a Harwell-Boeing file from disk.
func ReadHBFile(path string) (*sparse.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadHB(f)
}
