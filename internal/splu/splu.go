// Package splu implements a sequential sparse LU direct solver in the style
// of SuperLU's left-looking predecessor (Gilbert–Peierls): per-column
// symbolic reachability by depth-first search, sparse triangular solve and
// partial pivoting, in the matrix's natural column order.
//
// The package also defines the Direct/Factorization interfaces that let the
// multisplitting solver plug in *any* sequential direct method (sparse LU,
// dense LU or banded LU), exactly as Section 2 of the paper allows.
package splu

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// ErrSingular is returned when no usable pivot exists for some column.
var ErrSingular = errors.New("splu: matrix is numerically singular")

// Factorization is a factored linear system ready for repeated solves. The
// multisplitting iteration factors once per band and then calls Solve every
// iteration (paper Remark 4); a same-pattern value update refactors it in
// place (Refactorer).
type Factorization interface {
	Refactorer
	// Solve computes x with A·x = b; b is not modified and may alias x.
	Solve(x, b []float64, c *vec.Counter)
	// FactorFlops returns the cost paid by Factor: the numeric elimination
	// flops plus the counted symbolic work (ordering, reachability search,
	// pattern assembly) under the op model documented in DESIGN.md. It
	// equals the amount Factor added to its Counter.
	FactorFlops() float64
	// SolveFlops returns the exact floating-point cost one Solve call counts.
	// Unlike the factorization cost it is known analytically once the
	// factors exist, which lets the iteration drivers declare a solve
	// segment's cost up front and run the arithmetic concurrently with other
	// processes (vgrid.Proc.ComputeFunc).
	SolveFlops() float64
	// Bytes returns the approximate memory held by the factors.
	Bytes() int64
}

// Direct is a pluggable sequential direct solver.
type Direct interface {
	// Name identifies the method in logs and experiment tables.
	Name() string
	// Factor computes a factorization of the square matrix a.
	Factor(a *sparse.CSR, c *vec.Counter) (Factorization, error)
}

// SparseLU is a Direct implementing the Gilbert–Peierls sparse LU. It factors
// the columns in their given order with partial pivoting: column k pivots on
// its largest candidate, or on its diagonal entry when that ties it.
type SparseLU struct{}

// Name implements Direct.
func (*SparseLU) Name() string { return "sparse-lu" }

// sparseFactors holds L, U in compressed-column form with row indices in the
// pivotal (permuted) numbering, plus the row permutation.
//
// Row indices are stored as int32: the triangular solves stream every stored
// entry once per call, and 12 bytes per entry instead of 16 is a quarter less
// memory traffic (Factor rejects n > MaxInt32). Column pointers stay int.
// U stores no row for its diagonal entries, which end each column, and none
// for a column whose other rows are one ascending run (see us). Bytes()
// reports the modelled footprint, not this layout (see there).
//
// Beyond the factors themselves it retains the full output of the symbolic
// phase — the frozen L/U pattern, the pivot order and a scatter map from the
// input matrix's CSR positions into pivotal coordinates — so that Refactor
// can recompute the numeric values of a same-pattern matrix without pivot
// search, DFS or allocation (see refactor.go).
type sparseFactors struct {
	n      int
	lp, up []int
	li, ui []int32
	lx, ux []float64
	// us[k] locates the rows of the m off-diagonal entries of U(:,k),
	// ux[up[k]:up[k+1]-1]. When they are r0, r0+1, … in storage order it is
	// r0 (k for an empty column) and no row of the column is stored;
	// otherwise it is ^p and the rows are ui[p:p+m]: ui holds the rows of
	// such indexed columns only (see ucol).
	us         []int32
	pinv       []int // pinv[origRow] = pivotal position
	flops      float64
	symFlops   float64
	solveFlops float64

	// Scatter map for Refactor: entry p of acp[k]..acp[k+1] says that the
	// input matrix's CSR value at position avp[p] lands at pivotal row
	// ari[p] of factorization column k.
	acp, ari, avp []int
	// pattern fingerprints the RowPtr/ColInd the scatter map was built for;
	// Refactor refuses a matrix whose fingerprint differs.
	pattern uint64
	// refactorFlops is the exact numeric cost of one Refactor call, fully
	// determined by the frozen pattern (no zero-skips on the refactor path).
	refactorFlops float64

	// work is the Solve scratch, rwork the Refactor scatter scratch (held
	// all-zero between Refactor calls). Separate buffers: Solve leaves work
	// dirty. Single-owner like the factorization itself.
	work, rwork []float64
}

// colAxpy subtracts s times one stored factor column from y:
// y[ind[t]] -= val[t]·s. It is the inner loop of Factor's elimination,
// Refactor and both triangular sweeps of Solve. Taking the column as two
// resliced locals keeps the slice headers in registers — a loop that indexes
// the factor arrays through the receiver reloads them after every store into
// y, which may alias — and tying len(val) to len(ind) removes the bounds
// check on ind.
//
// Every multiply-add of the package is written with the product converted,
// float64(a*b): the Go spec then forbids fusing it into one rounding, so the
// factors and solutions are the same bits on every GOARCH.
func colAxpy(y []float64, ind []int32, val []float64, s float64) {
	val = val[:len(ind)]
	for t, v := range val {
		y[ind[t]] -= float64(v * s)
	}
}

// runAxpy is colAxpy for a column whose rows are consecutive: y[t] -= val[t]·s
// over a y resliced to the run, with no index to load or bounds-check per
// entry. It runs from the far end of the run, four updates a step: in the
// back sweep a run usually ends right above the diagonal, at the row whose
// division the next column waits for, and updating it first lets that
// division overlap the rest of the run. Each y[t] receives the same single
// update as through colAxpy, so the result is the same to the bit.
func runAxpy(y, val []float64, s float64) {
	y = y[:len(val)]
	t := len(val) - 1
	for ; t >= 3; t -= 4 {
		y[t] -= float64(val[t] * s)
		y[t-1] -= float64(val[t-1] * s)
		y[t-2] -= float64(val[t-2] * s)
		y[t-3] -= float64(val[t-3] * s)
	}
	for ; t >= 0; t-- {
		y[t] -= float64(val[t] * s)
	}
}

// isRun reports whether rows is r0, r0+1, … for its first row r0.
func isRun(rows []int32) bool {
	for t, r := range rows {
		if r != rows[0]+int32(t) {
			return false
		}
	}
	return true
}

// colDot is the transposed counterpart used by SolveT: it returns
// s − Σ val[t]·y[ind[t]], accumulated in storage order.
func colDot(y []float64, ind []int32, val []float64, s float64) float64 {
	val = val[:len(ind)]
	for t, v := range val {
		s -= float64(v * y[ind[t]])
	}
	return s
}

// runDot is colDot for a column whose rows are consecutive, over a y resliced
// to the run: s − Σ val[t]·y[t], accumulated in the same order, so the result
// is the same to the bit.
func runDot(y, val []float64, s float64) float64 {
	y = y[:len(val)]
	for t, v := range val {
		s -= float64(v * y[t])
	}
	return s
}

// urow returns row t of a U column that ucol returned as r0 and rows.
func urow(r0 int, rows []int32, t int) int {
	if rows == nil {
		return r0 + t
	}
	return int(rows[t])
}

// ucol returns where the m off-diagonal rows of U(:,k) are: r0 and nil for a
// run column, whose rows are r0, r0+1, …; -1 and the stored rows otherwise.
// An indexed column has two rows or more, so rows is nil only for a run.
func (f *sparseFactors) ucol(k, m int) (r0 int, rows []int32) {
	r := int(f.us[k])
	if r < 0 {
		return -1, f.ui[^r : ^r+m]
	}
	return r, nil
}

// grow returns s with room for need more entries, column k of n being the
// next to be stored. Factor knows each column's entry counts before it stores
// them, so one call per column and array lets the per-entry appends that
// follow run without reallocating. How much to take is a forecast of the
// final length: early columns say little, so the capacity doubles; once an
// eighth of the columns are stored, the length reached so far is
// extrapolated linearly with 15% headroom. Leaving it to append would cost
// far more: a wide band fills to 16× the input, and append's 1.25× steps for
// large slices allocate five times the final factor on the way there. The
// two arrays of L grow in step: equal lengths forecast equal capacities.
func grow[T int32 | float64](s []T, need, k, n int) []T {
	if cap(s)-len(s) >= need {
		return s
	}
	c := 2 * cap(s)
	if 8*k >= n {
		c = int(1.15 * float64(len(s)) * float64(n) / float64(k))
	}
	if c < len(s)+need {
		c = len(s) + need
	}
	ns := make([]T, len(s), c)
	copy(ns, s)
	return ns
}

// Factor implements Direct. Besides the numeric elimination flops it counts
// the symbolic work — CSC conversion, scatter, DFS reachability,
// pivot scan and pattern assembly — under the 1-op-per-touch model of
// DESIGN.md, so the simulated factorization time reflects everything a real
// factorization does. Refactor (refactor.go) repeats only the numeric part.
// On ErrSingular it counts the work done up to the failing column.
func (*SparseLU) Factor(a *sparse.CSR, c *vec.Counter) (Factorization, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("splu: need square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("splu: order %d exceeds the 32-bit factor index range", n)
	}
	// Work tallies are integers, converted once at the end: every term is a
	// whole number and the totals stay far below 2^53, so the float64 values
	// reported are exact, and the inner loops carry no float accumulator.
	flops, sym := 0, 0
	ac := a.ToCSC()
	sym += 2 * a.NNZ() // transpose to column form

	lp := make([]int, n+1)
	up := make([]int, n+1)
	pinv := make([]int, n)
	for i := range pinv {
		pinv[i] = -1
	}
	x := make([]float64, n)
	mark := make([]bool, n)
	reach := make([]int, n)  // output stack: reach set in topological order
	dstack := make([]int, n) // DFS node stack
	pstack := make([]int, n) // DFS position stack
	lend := make([]int, n)   // end of the part of L(:,j) the reach DFS scans
	us := make([]int32, n)

	// Start each factor at nnz+n entries, twice its no-fill size: enough for
	// the small and narrow bands, which then never regrow; grow takes over
	// when fill exceeds it. ui, which keeps the rows of indexed columns only,
	// starts with room for any one column: a factor whose columns are all
	// runs never regrows it.
	est := a.NNZ() + n
	li, lx := make([]int32, 0, est), make([]float64, 0, est)
	ui, ux := make([]int32, 0, n), make([]float64, 0, est)

	for k := 0; k < n; k++ {
		lo, hi := ac.ColPtr[k], ac.ColPtr[k+1]
		rows, vals := ac.RowInd[lo:hi], ac.Val[lo:hi]

		// Symbolic step: reach of pattern of A(:,k) in the graph of L.
		top := n
		for _, i := range rows {
			if !mark[i] {
				top = dfs(i, pinv, lp, lend, li, mark, reach, dstack, pstack, top)
			}
		}
		rs := reach[top:]
		// The scatter touches each input entry once; the DFS visits each
		// element of the reach set once and the passes below (pivot scan,
		// store/clear) twice. The DFS's edge scans are counted from the
		// reach in the elimination loop: one per entry of every visited L
		// column but its unit pivot, what the unpruned DFS scans.
		sym += len(rows) + 3*len(rs)

		// Numeric step: scatter then eliminate in topological order.
		for t, i := range rows {
			x[i] = vals[t]
		}
		for _, j := range rs {
			jn := pinv[j]
			if jn < 0 {
				continue
			}
			p0, p1 := lp[jn]+1, lp[jn+1]
			sym += p1 - p0
			xj := x[j]
			if xj == 0 {
				continue
			}
			colAxpy(x, li[p0:p1], lx[p0:p1], xj)
			flops += 2 * (p1 - p0)
		}

		// Pivot choice among not-yet-pivotal rows of the reach set; lnew
		// counts them: they become L(:,k), the other rows plus the diagonal
		// U(:,k).
		ipiv, a0, lnew := -1, -1.0, 0
		for _, i := range rs {
			if pinv[i] < 0 {
				lnew++
				if t := math.Abs(x[i]); t > a0 {
					a0, ipiv = t, i
				}
			}
		}
		if ipiv == -1 || a0 <= 0 {
			// The work done up to here is counted, which keeps the promise
			// of FactorFloor on this path too.
			c.Add(float64(flops + sym))
			return nil, ErrSingular
		}
		// A diagonal entry that ties the largest candidate is the pivot.
		if pinv[k] < 0 && math.Abs(x[k]) >= a0 {
			ipiv = k
		}
		pivot := x[ipiv]
		pinv[ipiv] = k

		ui = grow(ui, len(rs)-lnew, k, n)
		ux = grow(ux, len(rs)-lnew+1, k, n)
		li = grow(li, lnew, k, n)
		lx = grow(lx, lnew, k, n)

		// Store U(:,k): entries whose rows are already pivotal + diagonal.
		// The rows of a run column are taken back off ui: us[k] holds the
		// first.
		start := len(ui)
		if start > math.MaxInt32 {
			return nil, fmt.Errorf("splu: U row indices exceed the 32-bit offset range at column %d", k)
		}
		for _, i := range rs {
			if jn := pinv[i]; jn >= 0 && jn < k {
				ui = append(ui, int32(jn))
				ux = append(ux, x[i])
				prune(jn, int32(ipiv), pinv, lend, li)
			}
		}
		us[k] = ^int32(start)
		if rows := ui[start:]; isRun(rows) {
			us[k] = int32(k)
			if len(rows) > 0 {
				us[k] = rows[0]
			}
			ui = ui[:start]
		}
		ux = append(ux, pivot)
		up[k+1] = len(ux)

		// Store L(:,k): pivot row (unit) then the remaining rows scaled.
		// Until the remap below, li holds original row numbers.
		li = append(li, int32(ipiv))
		lx = append(lx, 1)
		for _, i := range rs {
			if pinv[i] < 0 {
				li = append(li, int32(i))
				lx = append(lx, x[i]/pivot)
			}
			x[i] = 0
			mark[i] = false
		}
		lp[k+1] = len(lx)
		lend[k] = lp[k+1]
		flops += lp[k+1] - lp[k] - 1 // pivot divisions
	}
	// Remap L's row indices into pivotal numbering.
	for p, i := range li {
		li[p] = int32(pinv[i])
	}
	sym += len(lx) + len(ux) // pattern assembly (one op per stored entry)
	f := &sparseFactors{
		n: n, lp: lp, li: li, lx: lx, up: up, ui: ui, ux: ux, us: us, pinv: pinv,
		flops:      float64(flops),
		symFlops:   float64(sym),
		solveFlops: 2 * float64(len(lx)+len(ux)),
	}
	f.finishSymbolic(a)
	c.Add(f.flops + f.symFlops)
	return f, nil
}

// FactorFloor returns a count d.Factor(a, c) is certain to add to c: the floor
// a caller declares when it runs the factorization as a deferred compute
// segment (vgrid.Proc.ComputeDeferred). SparseLU.Factor counts its CSC
// transpose, 2·nnz(a), before the first column — so on its ErrSingular path
// too, which counts the work done so far. The dense-family solvers promise
// nothing: their counts skip zero multipliers, so a matrix that is already
// triangular counts none.
func FactorFloor(d Direct, a *sparse.CSR) float64 {
	if _, ok := d.(*SparseLU); ok && a.Rows == a.Cols {
		return 2 * float64(a.NNZ())
	}
	return 0
}

// patternHash fingerprints a CSR sparsity pattern: FNV-1a with one
// xor-multiply per index word (each row's entries, then the row's end), so
// two matrices with equal counts but different column indices or row
// boundaries differ. Allocation-free; Refactor runs it on every call.
func patternHash(a *sparse.CSR) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < a.Rows; i++ {
		end := a.RowPtr[i+1]
		for _, j := range a.ColInd[a.RowPtr[i]:end] {
			h = (h ^ uint64(j)) * prime
		}
		h = (h ^ uint64(end)) * prime
	}
	return h
}

// finishSymbolic freezes the symbolic phase's outputs for reuse: the scatter
// map from the input matrix's CSR layout into pivotal coordinates, the
// pattern fingerprint that guards it, the exact numeric cost of one Refactor
// pass and the solve/refactor scratch buffers.
func (f *sparseFactors) finishSymbolic(a *sparse.CSR) {
	n := f.n
	nnz := a.NNZ()
	f.acp = make([]int, n+1)
	f.ari = make([]int, nnz)
	f.avp = make([]int, nnz)
	// Counting sort of the CSR entries by column: within each column, entries
	// appear in increasing original-row order (deterministic).
	for _, j := range a.ColInd {
		f.acp[j+1]++
	}
	for k := 0; k < n; k++ {
		f.acp[k+1] += f.acp[k]
	}
	next := append([]int(nil), f.acp[:n]...)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k := a.ColInd[p]
			f.ari[next[k]] = f.pinv[i]
			f.avp[next[k]] = p
			next[k]++
		}
	}
	f.pattern = patternHash(a)
	// Exact numeric cost of a Refactor pass: the elimination updates walk the
	// frozen pattern unconditionally (no value-dependent zero skips), so the
	// cost is known before any values arrive.
	rf := 0
	for k := 0; k < n; k++ {
		m := f.up[k+1] - 1 - f.up[k]
		r0, rows := f.ucol(k, m)
		for t := 0; t < m; t++ {
			jn := urow(r0, rows, t)
			rf += 2 * (f.lp[jn+1] - f.lp[jn] - 1)
		}
		rf += f.lp[k+1] - f.lp[k] - 1 // pivot divisions
	}
	f.refactorFlops = float64(rf)
	f.work = make([]float64, n)
	f.rwork = make([]float64, n)
}

// dfs pushes the reach set of node i (original row numbering) onto the
// output stack reach[top-1...] and returns the new top. It scans L(:,j) of a
// pivotal node only up to lend (see prune). A child that is not pivotal has
// no children: it is finished where it is found, without a push, in the
// place the push and pop would have finished it. mark must be clear on
// unvisited nodes; the caller clears visited marks after consuming the set.
// li holds original row numbers at this stage.
func dfs(i int, pinv, lp, lend []int, li []int32, mark []bool, reach, dstack, pstack []int, top int) int {
	head := 0
	dstack[0] = i
	mark[i] = true
	if jn := pinv[i]; jn >= 0 {
		pstack[0] = lp[jn] + 1 // skip unit pivot entry
	}
	for head >= 0 {
		j := dstack[head]
		jn := pinv[j]
		done := true
		if jn >= 0 {
			p := pstack[head]
			for t, child := range li[p:lend[jn]] {
				if mark[child] {
					continue
				}
				mark[child] = true
				cn := pinv[child]
				if cn < 0 {
					top--
					reach[top] = int(child)
					continue
				}
				pstack[head] = p + t + 1
				head++
				dstack[head] = int(child)
				pstack[head] = lp[cn] + 1
				done = false
				break
			}
		}
		if done {
			head--
			top--
			reach[top] = j
		}
	}
	return top
}

// prune shortens the part of L(:,jn) the reach DFS scans, right after row r
// (original numbering) pivoted at a column k whose U part holds jn. When r is
// the last pivotal row of that part, every row after it was unpivoted at
// column k; the DFS reached them all there, so they lie in L(:,k). A later
// DFS that visits jn scans r before them and, by the time r is finished —
// r is never an ancestor of jn, columns only grow along a path — has marked
// all of L(:,k): the unpruned scan of the rows after r finds each of them
// marked. Cutting them off therefore keeps the pushed and finished node
// sequence, and with it every update order and stored factor, unchanged.
//
// The search for the last pivotal row runs backwards over unpivoted rows
// only, and ends at the latest on the column's own pivot row, stored first.
// After a cut r closes the part, so every later search stops at once.
func prune(jn int, r int32, pinv, lend []int, li []int32) {
	p := lend[jn] - 1
	for pinv[li[p]] < 0 {
		p--
	}
	if li[p] == r {
		lend[jn] = p + 1
	}
}

// Solve implements Factorization. It is allocation-free: the permuted
// right-hand side lives in the factorization's scratch buffer, which makes
// the multisplitting iteration's hot path (one Solve per band per iteration)
// run without garbage.
func (f *sparseFactors) Solve(x, b []float64, c *vec.Counter) {
	n := f.n
	if len(x) != n || len(b) != n {
		panic("splu: Solve shape mismatch")
	}
	y := f.work
	// y = P·b.
	for i, k := range f.pinv {
		y[k] = b[i]
	}
	// Forward solve L·y = P·b (column-oriented, unit diagonal first).
	lp, li, lx := f.lp, f.li, f.lx
	for k := 0; k < n; k++ {
		if yk := y[k]; yk != 0 {
			lo, hi := lp[k]+1, lp[k+1]
			colAxpy(y, li[lo:hi], lx[lo:hi], yk)
		}
	}
	// Back solve U·z = y (diagonal entry is last in each column).
	up, ui, ux, us := f.up, f.ui, f.ux, f.us
	for k := n - 1; k >= 0; k-- {
		lo, hi := up[k], up[k+1]-1
		yk := y[k] / ux[hi]
		y[k] = yk
		if r0 := int(us[k]); r0 >= 0 {
			runAxpy(y[r0:r0+hi-lo], ux[lo:hi], yk)
		} else {
			p := ^r0
			colAxpy(y, ui[p:p+hi-lo], ux[lo:hi], yk)
		}
	}
	copy(x, y)
	c.Add(f.solveFlops)
}

// FactorFlops implements Factorization: numeric plus counted symbolic work.
func (f *sparseFactors) FactorFlops() float64 { return f.flops + f.symFlops }

// SolveFlops implements Factorization.
func (f *sparseFactors) SolveFlops() float64 { return f.solveFlops }

// Bytes implements Factorization. It is the modelled footprint — 8 bytes per
// value and one 8-byte row index per value, three n+1 pointer arrays — that
// the simulated hosts' memory accounting (the tables' "nem" cells) is
// calibrated on, not the in-process size, which holds the indices as int32
// and stores none for U's diagonal and run columns.
func (f *sparseFactors) Bytes() int64 {
	entries := int64(len(f.lx) + len(f.ux))
	idx := entries + int64(3*(f.n+1))
	return entries*8 + idx*8
}

// NNZFactors returns nnz(L) and nnz(U) (diagnostics and fill measurements).
func (f *sparseFactors) NNZFactors() (lnz, unz int) { return len(f.lx), len(f.ux) }

// DenseSolver adapts the dense LU of internal/dense to the Direct interface.
type DenseSolver struct{}

// Name implements Direct.
func (DenseSolver) Name() string { return "dense-lu" }

// Factor implements Direct.
func (DenseSolver) Factor(a *sparse.CSR, c *vec.Counter) (Factorization, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("splu: need square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	d := dense.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			d.Set(i, a.ColInd[p], a.Val[p])
		}
	}
	lu, err := dense.FactorLU(d, c)
	if err != nil {
		return nil, err
	}
	return &denseFact{lu: lu, n: n, scratch: d}, nil
}

type denseFact struct {
	lu *dense.LU
	n  int
	// scratch is the dense image of the input, reused by Refactor so a
	// numeric re-factorization allocates nothing.
	scratch *dense.Matrix
}

func (f *denseFact) Solve(x, b []float64, c *vec.Counter) { f.lu.Solve(x, b, c) }
func (f *denseFact) FactorFlops() float64                 { return f.lu.Flops }
func (f *denseFact) SolveFlops() float64                  { return 2 * float64(f.n) * float64(f.n) }
func (f *denseFact) Bytes() int64                         { return int64(f.n) * int64(f.n) * 8 }

// BandSolver adapts the banded LU to the Direct interface. The matrix is
// first RCM-permuted when that shrinks its band.
type BandSolver struct{}

// Name implements Direct.
func (BandSolver) Name() string { return "band-lu" }

// Factor implements Direct.
func (BandSolver) Factor(a *sparse.CSR, c *vec.Counter) (Factorization, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("splu: need square matrix, got %dx%d", a.Rows, a.Cols)
	}
	var perm []int
	m := a
	if a.Rows > 2 {
		perm = order.RCM(a)
		if order.BandAfter(a, perm) < a.Bandwidth() {
			m = a.Permute(perm, perm)
		} else {
			perm = nil
		}
	}
	bw := m.Bandwidth()
	band := dense.NewBand(m.Rows, bw, bw)
	fillBand(band, m)
	lu, err := dense.FactorBand(band, c)
	if err != nil {
		return nil, err
	}
	f := &bandFact{lu: lu, n: m.Rows, perm: perm}
	if perm != nil {
		f.pb = make([]float64, m.Rows)
		f.px = make([]float64, m.Rows)
	}
	return f, nil
}

type bandFact struct {
	lu   *dense.BandLU
	n    int
	perm []int // symmetric permutation applied before factoring, or nil
	// pb/px hold the permuted right-hand side and solution so the permuted
	// Solve path is allocation-free (single-owner, like the factorization).
	pb, px []float64
}

func (f *bandFact) Solve(x, b []float64, c *vec.Counter) {
	if f.perm == nil {
		f.lu.Solve(x, b, c)
		return
	}
	for i, v := range b {
		f.pb[f.perm[i]] = v
	}
	f.lu.Solve(f.px, f.pb, c)
	for i := range x {
		x[i] = f.px[f.perm[i]]
	}
}

func (f *bandFact) FactorFlops() float64 { return f.lu.Flops }

func (f *bandFact) SolveFlops() float64 { return f.lu.SolveFlops() }

func (f *bandFact) Bytes() int64 { return f.lu.Bytes() }
