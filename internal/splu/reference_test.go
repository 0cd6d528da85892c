package splu

// The sparse LU as it was before the kernel rework: []int factor indices,
// float64 work tallies bumped inside the inner loops, a dfs method that reads
// the factors through the receiver, hand-written inner loops and append
// growth from an nnz+n pre-size, every U row index stored. The loops are
// kept verbatim, but for the float64 conversion of each product that the
// package's no-fusion rule (see colAxpy) adds, as the oracle
// TestSparseLUMatchesReference and FuzzSparseLUMatchesReference hold the
// production code to, value for value and flop for flop. Nothing outside this
// file uses it. Next to it: the reach DFS as it was before pruning
// (unprunedDFS), the oracle of TestPrunedReachMatchesUnpruned, and the kernel
// benchmarks that price the production Factor and Solve against the
// reference.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/vec"
)

type refFactors struct {
	n          int
	lp, li     []int
	lx         []float64
	up, ui     []int
	ux         []float64
	pinv       []int
	flops      float64
	symFlops   float64
	solveFlops float64

	acp, ari, avp []int
	refactorFlops float64
	work, rwork   []float64
}

func refFactor(a *sparse.CSR, c *vec.Counter) (*refFactors, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("splu: need square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	sym := 0.0
	ac := a.ToCSC()
	sym += 2 * float64(a.NNZ())

	f := &refFactors{
		n:    n,
		lp:   make([]int, n+1),
		up:   make([]int, n+1),
		pinv: make([]int, n),
	}
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	x := make([]float64, n)
	mark := make([]bool, n)
	reach := make([]int, n)
	dstack := make([]int, n)
	pstack := make([]int, n)

	est := a.NNZ() + n
	f.li = make([]int, 0, est)
	f.lx = make([]float64, 0, est)
	f.ui = make([]int, 0, est)
	f.ux = make([]float64, 0, est)

	for k := 0; k < n; k++ {
		lo, hi := ac.ColPtr[k], ac.ColPtr[k+1]

		top := n
		for p := lo; p < hi; p++ {
			i := ac.RowInd[p]
			if mark[i] {
				continue
			}
			top = f.dfs(i, mark, reach, dstack, pstack, top)
		}
		sym += float64(hi-lo) + 2*float64(n-top)

		for p := lo; p < hi; p++ {
			x[ac.RowInd[p]] = ac.Val[p]
		}
		for px := top; px < n; px++ {
			j := reach[px]
			jn := f.pinv[j]
			if jn < 0 {
				continue
			}
			xj := x[j]
			if xj == 0 {
				continue
			}
			for p := f.lp[jn] + 1; p < f.lp[jn+1]; p++ {
				x[f.li[p]] -= float64(f.lx[p] * xj)
			}
			f.flops += 2 * float64(f.lp[jn+1]-f.lp[jn]-1)
		}

		ipiv, a0 := -1, -1.0
		for px := top; px < n; px++ {
			i := reach[px]
			if f.pinv[i] < 0 {
				if t := math.Abs(x[i]); t > a0 {
					a0, ipiv = t, i
				}
			}
		}
		if ipiv == -1 || a0 <= 0 {
			return nil, ErrSingular
		}
		if f.pinv[k] < 0 && math.Abs(x[k]) >= a0 {
			ipiv = k
		}
		pivot := x[ipiv]
		f.pinv[ipiv] = k

		for px := top; px < n; px++ {
			i := reach[px]
			if jn := f.pinv[i]; jn >= 0 && jn < k {
				f.ui = append(f.ui, jn)
				f.ux = append(f.ux, x[i])
			}
		}
		f.ui = append(f.ui, k)
		f.ux = append(f.ux, pivot)
		f.up[k+1] = len(f.ux)

		f.li = append(f.li, ipiv)
		f.lx = append(f.lx, 1)
		for px := top; px < n; px++ {
			i := reach[px]
			if f.pinv[i] < 0 {
				f.li = append(f.li, i)
				f.lx = append(f.lx, x[i]/pivot)
				f.flops++
			}
			x[i] = 0
			mark[i] = false
		}
		f.lp[k+1] = len(f.lx)
	}
	for p := range f.li {
		f.li[p] = f.pinv[f.li[p]]
	}
	f.solveFlops = 2 * float64(len(f.lx)+len(f.ux))
	sym += float64(len(f.lx) + len(f.ux))
	f.symFlops += sym
	f.finishSymbolic(a)
	c.Add(f.flops + f.symFlops)
	return f, nil
}

func (f *refFactors) finishSymbolic(a *sparse.CSR) {
	n := f.n
	nnz := a.NNZ()
	f.acp = make([]int, n+1)
	f.ari = make([]int, nnz)
	f.avp = make([]int, nnz)
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
	rf := 0.0
	for k := 0; k < n; k++ {
		for p := f.up[k]; p < f.up[k+1]-1; p++ {
			jn := f.ui[p]
			rf += 2 * float64(f.lp[jn+1]-f.lp[jn]-1)
		}
		rf += float64(f.lp[k+1] - f.lp[k] - 1)
	}
	f.refactorFlops = rf
	f.work = make([]float64, n)
	f.rwork = make([]float64, n)
}

func (f *refFactors) dfs(i int, mark []bool, reach, dstack, pstack []int, top int) int {
	head := 0
	dstack[0] = i
	for head >= 0 {
		j := dstack[head]
		jn := f.pinv[j]
		if !mark[j] {
			mark[j] = true
			f.symFlops++
			if jn < 0 {
				pstack[head] = 0
			} else {
				pstack[head] = f.lp[jn] + 1
			}
		}
		done := true
		if jn >= 0 {
			end := f.lp[jn+1]
			for p := pstack[head]; p < end; p++ {
				f.symFlops++
				child := f.li[p]
				if mark[child] {
					continue
				}
				pstack[head] = p + 1
				head++
				dstack[head] = child
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

// unprunedDFS is the reach DFS as it was before pruning, kept verbatim
// (renamed): it scans every entry of each visited L column and tallies the
// work as it goes — one op per node visit plus one per L entry scanned.
func unprunedDFS(i int, pinv, lp []int, li []int32, mark []bool, reach, dstack, pstack []int, top int) (int, int) {
	work := 0
	head := 0
	dstack[0] = i
	for head >= 0 {
		j := dstack[head]
		jn := pinv[j]
		if !mark[j] {
			mark[j] = true
			work++ // node visit
			if jn >= 0 {
				pstack[head] = lp[jn] + 1 // skip unit pivot entry
			}
		}
		done := true
		if jn >= 0 {
			rest := li[pstack[head]:lp[jn+1]]
			scanned := len(rest)
			for t, child := range rest {
				if !mark[child] {
					scanned = t + 1
					pstack[head] += scanned
					head++
					dstack[head] = int(child)
					done = false
					break
				}
			}
			work += scanned // edge scans
		}
		if done {
			head--
			top--
			reach[top] = j
		}
	}
	return top, work
}

// TestPrunedReachMatchesUnpruned replays Factor's symbolic phase column by
// column over the factors it produced, with the pivot order it chose: the
// production dfs, scanning only what prune leaves of each L column, and
// unprunedDFS must yield the same reach sequence, and the work unprunedDFS
// tallies must equal what Factor counts from the reach — one per visit plus
// |L(:,j)| − 1 per visited pivotal node. The shapes are the ones
// TestSparseLUMatchesReference factors, the pivoting-heavy pattern among them,
// where most pivots are off the diagonal.
func TestPrunedReachMatchesUnpruned(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.CSR
	}{
		{"wideband", gen.DiagDominant(gen.DiagDominantOpts{N: 700, Band: 120, PerRow: 10, Margin: 0.016, Negative: true, Seed: 3})},
		{"narrowband", gen.DiagDominant(gen.DiagDominantOpts{N: 1500, Band: 12, PerRow: 7, Seed: 4})},
		{"cage", gen.CageLike(400, 5)},
		{"poisson", gen.Poisson2D(20, 17)},
		{"pivoting", pivotingHeavy(300, 6)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fact, err := (&SparseLU{}).Factor(tc.a, nil)
			if err != nil {
				t.Fatal(err)
			}
			f := fact.(*sparseFactors)
			n, lp := f.n, f.lp
			// prow[k] is the original row that pivoted at column k; li is L in
			// original row numbering, as Factor holds it while it factors.
			prow := make([]int, n)
			for i, k := range f.pinv {
				prow[k] = i
			}
			li := make([]int32, len(f.li))
			for p, k := range f.li {
				li[p] = int32(prow[k])
			}
			ac := tc.a.ToCSC()
			pinv := make([]int, n)
			for i := range pinv {
				pinv[i] = -1
			}
			lend := make([]int, n)
			mark, markR := make([]bool, n), make([]bool, n)
			reach, reachR := make([]int, n), make([]int, n)
			dstack, pstack := make([]int, n), make([]int, n)
			scanned, skipped, offDiag := 0, 0, 0
			for k := 0; k < n; k++ {
				top, topR, work := n, n, 0
				for _, i := range ac.RowInd[ac.ColPtr[k]:ac.ColPtr[k+1]] {
					if !mark[i] {
						top = dfs(i, pinv, lp, lend, li, mark, reach, dstack, pstack, top)
					}
					if !markR[i] {
						var w int
						topR, w = unprunedDFS(i, pinv, lp, li, markR, reachR, dstack, pstack, topR)
						work += w
					}
				}
				rs := reach[top:]
				equalInts(t, fmt.Sprintf("column %d: reach", k), rs, reachR[topR:])
				tally := len(rs)
				for _, j := range rs {
					if jn := pinv[j]; jn >= 0 {
						tally += lp[jn+1] - lp[jn] - 1
						scanned += lend[jn] - lp[jn] - 1
						skipped += lp[jn+1] - lend[jn]
					}
				}
				if tally != work {
					t.Fatalf("column %d: Factor counts %d from the reach, the unpruned DFS did %d", k, tally, work)
				}
				r := prow[k]
				if r != k {
					offDiag++
				}
				pinv[r] = k
				for _, i := range rs {
					if jn := pinv[i]; jn >= 0 && jn < k {
						prune(jn, int32(r), pinv, lend, li)
					}
					mark[i], markR[i] = false, false
				}
				lend[k] = lp[k+1]
			}
			t.Logf("edge scans %d, pruned away %d (%.0f %%), off-diagonal pivots %d of %d",
				scanned, skipped, 100*float64(skipped)/float64(scanned+skipped), offDiag, n)
			if skipped == 0 {
				t.Errorf("nothing pruned: the test no longer exercises pruning")
			}
			if tc.name == "pivoting" && offDiag == 0 {
				t.Errorf("no off-diagonal pivot: the test no longer exercises pivoting")
			}
		})
	}
}

func (f *refFactors) Solve(x, b []float64, c *vec.Counter) {
	n := f.n
	y := f.work
	for i := 0; i < n; i++ {
		y[f.pinv[i]] = b[i]
	}
	for k := 0; k < n; k++ {
		yk := y[k]
		if yk == 0 {
			continue
		}
		for p := f.lp[k] + 1; p < f.lp[k+1]; p++ {
			y[f.li[p]] -= float64(f.lx[p] * yk)
		}
	}
	for k := n - 1; k >= 0; k-- {
		d := f.ux[f.up[k+1]-1]
		y[k] /= d
		yk := y[k]
		for p := f.up[k]; p < f.up[k+1]-1; p++ {
			y[f.ui[p]] -= float64(f.ux[p] * yk)
		}
	}
	copy(x, y)
	c.Add(f.solveFlops)
}

func (f *refFactors) SolveT(x, b []float64, c *vec.Counter) {
	n := f.n
	y := make([]float64, n)
	copy(y, b)
	for k := 0; k < n; k++ {
		s := y[k]
		for p := f.up[k]; p < f.up[k+1]-1; p++ {
			s -= float64(f.ux[p] * y[f.ui[p]])
		}
		y[k] = s / f.ux[f.up[k+1]-1]
	}
	for k := n - 1; k >= 0; k-- {
		s := y[k]
		for p := f.lp[k] + 1; p < f.lp[k+1]; p++ {
			s -= float64(f.lx[p] * y[f.li[p]])
		}
		y[k] = s
	}
	for i := 0; i < n; i++ {
		x[i] = y[f.pinv[i]]
	}
	c.Add(f.solveFlops)
}

// Refactor is the parent's numeric pass. It reports a degraded pivot instead
// of falling back: the comparison test only refactors matrices whose frozen
// pivots hold, and the production fallback is a plain Factor, which the
// Factor comparison already covers.
func (f *refFactors) Refactor(a *sparse.CSR, c *vec.Counter) error {
	n := f.n
	if a.Rows != n || a.Cols != n {
		return fmt.Errorf("splu: Refactor needs %dx%d matrix, got %dx%d", n, n, a.Rows, a.Cols)
	}
	if a.NNZ() != len(f.avp) {
		return fmt.Errorf("splu: Refactor pattern mismatch: %d nnz, factored %d", a.NNZ(), len(f.avp))
	}
	x := f.rwork
	for k := 0; k < n; k++ {
		for p := f.acp[k]; p < f.acp[k+1]; p++ {
			x[f.ari[p]] = a.Val[f.avp[p]]
		}
		for p := f.up[k]; p < f.up[k+1]-1; p++ {
			jn := f.ui[p]
			xj := x[jn]
			f.ux[p] = xj
			x[jn] = 0
			for pp := f.lp[jn] + 1; pp < f.lp[jn+1]; pp++ {
				x[f.li[pp]] -= float64(f.lx[pp] * xj)
			}
		}
		piv := x[k]
		x[k] = 0
		a0 := math.Abs(piv)
		for p := f.lp[k] + 1; p < f.lp[k+1]; p++ {
			if t := math.Abs(x[f.li[p]]); t > a0 {
				a0 = t
			}
		}
		if piv == 0 || a0 == 0 || math.Abs(piv) < a0 {
			for i := range x {
				x[i] = 0
			}
			return fmt.Errorf("reference Refactor: pivot %d degraded", k)
		}
		f.ux[f.up[k+1]-1] = piv
		for p := f.lp[k] + 1; p < f.lp[k+1]; p++ {
			i := f.li[p]
			f.lx[p] = x[i] / piv
			x[i] = 0
		}
	}
	c.Add(f.refactorFlops)
	return nil
}

func (f *refFactors) Bytes() int64 {
	entries := int64(len(f.lx) + len(f.ux))
	idx := int64(len(f.li)+len(f.ui)) + int64(3*(f.n+1))
	return entries*8 + idx*8
}

// pivotingHeavy is a random sparse matrix with a weak diagonal, so most
// columns pivot off the diagonal and U has indexed columns.
func pivotingHeavy(n int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	co := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		co.Append(i, i, 0.05*rng.NormFloat64())
		co.Append(i, (i+1)%n, 1+rng.Float64()) // a cycle keeps it nonsingular in practice
		for e := 0; e < 4; e++ {
			if j := rng.Intn(n); j != i && j != (i+1)%n {
				co.Append(i, j, rng.NormFloat64())
			}
		}
	}
	return co.ToCSR()
}

// ints widens the production code's int32 factor indices for comparison.
func ints(v []int32) []int {
	out := make([]int, len(v))
	for p, x := range v {
		out[p] = int(x)
	}
	return out
}

func equalInts(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", what, len(got), len(want))
	}
	for p, v := range want {
		if got[p] != v {
			t.Fatalf("%s[%d] = %d, reference %d", what, p, got[p], v)
		}
	}
}

func equalBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", what, len(got), len(want))
	}
	for p, v := range want {
		if math.Float64bits(got[p]) != math.Float64bits(v) {
			t.Fatalf("%s[%d] = %v, reference %v", what, p, got[p], v)
		}
	}
}

// uRows rebuilds U's row indices the way the reference stores them: each
// column's off-diagonal rows, from its run start or its slice of ui, then the
// diagonal's row k. It counts the columns stored as runs and as indexed
// columns, and fails unless the indexed columns tile ui in column order and
// none of them is a run.
func uRows(t *testing.T, f *sparseFactors) (rows []int, runs, indexed int) {
	t.Helper()
	if len(f.us) != f.n {
		t.Fatalf("%d U column starts for %d columns", len(f.us), f.n)
	}
	rows = make([]int, 0, len(f.ux))
	next := 0 // where the next indexed column's rows must begin in ui
	for k := 0; k < f.n; k++ {
		m := f.up[k+1] - 1 - f.up[k]
		r0, ind := f.ucol(k, m)
		switch {
		case ind != nil:
			indexed++
			if p := int(^f.us[k]); p != next {
				t.Fatalf("U(:,%d) starts at ui[%d], the previous indexed column ends at %d", k, p, next)
			}
			if isRun(ind) {
				t.Fatalf("U(:,%d) is a run %v but stores its rows", k, ind)
			}
			next += m
		case m == 0 && r0 != k:
			t.Fatalf("empty U(:,%d) starts at row %d, not at its diagonal", k, r0)
		default:
			runs++
		}
		for p := 0; p < m; p++ {
			rows = append(rows, urow(r0, ind, p))
		}
		rows = append(rows, k)
	}
	if next != len(f.ui) {
		t.Fatalf("indexed U columns hold %d rows, ui %d", next, len(f.ui))
	}
	return rows, runs, indexed
}

// equalFactors compares f with the reference entry by entry, U's full row
// pattern included, and returns how many U columns f stores as runs and as
// indexed columns.
func equalFactors(t *testing.T, f *sparseFactors, r *refFactors) (runs, indexed int) {
	t.Helper()
	equalInts(t, "lp", f.lp, r.lp)
	equalInts(t, "up", f.up, r.up)
	equalInts(t, "li", ints(f.li), r.li)
	rows, runs, indexed := uRows(t, f)
	equalInts(t, "U rows", rows, r.ui)
	equalBits(t, "lx", f.lx, r.lx)
	equalBits(t, "ux", f.ux, r.ux)
	equalInts(t, "pinv", f.pinv, r.pinv)
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"FactorFlops", f.FactorFlops(), r.flops + r.symFlops},
		{"numeric flops", f.flops, r.flops},
		{"SolveFlops", f.SolveFlops(), r.solveFlops},
		{"RefactorFlops", f.RefactorFlops(), r.refactorFlops},
		{"Bytes", float64(f.Bytes()), float64(r.Bytes())},
	} {
		if c.got != c.want {
			t.Fatalf("%s = %v, reference %v", c.what, c.got, c.want)
		}
	}
	if l, u := f.NNZFactors(); l != len(r.lx) || u != len(r.ux) {
		t.Fatalf("NNZFactors = %d,%d, reference %d,%d", l, u, len(r.lx), len(r.ux))
	}
	return runs, indexed
}

// refOutcome is what matchReference saw besides equality.
type refOutcome struct {
	singular      bool // Factor and the reference both returned ErrSingular
	runs, indexed int  // U columns stored as runs and as indexed columns
	fellBack      bool // a frozen pivot degraded under Refactor in both
}

// matchReference factors a with SparseLU and with the reference and holds
// them equal — pivots and pattern, every value to the bit, the counted work to
// the last flop — and so the Solve and SolveT of one right-hand side. It then
// refactors both with ap, a's pattern with other values, and holds them equal
// again, Solve included. Where the reference reports a degraded frozen pivot
// the production code must have fallen back to a fresh Factor, which is
// compared with refFactor of ap. Either factorization failing is a failure
// unless both return ErrSingular.
func matchReference(t *testing.T, a, ap *sparse.CSR) refOutcome {
	t.Helper()
	bothSingular := func(what string, err, errR error) {
		t.Helper()
		if !errors.Is(err, ErrSingular) || !errors.Is(errR, ErrSingular) {
			t.Fatalf("%s: %v, reference: %v", what, err, errR)
		}
	}
	var cf, cr vec.Counter
	fact, err := (&SparseLU{}).Factor(a, &cf)
	ref, errR := refFactor(a, &cr)
	if err != nil || errR != nil {
		bothSingular("Factor", err, errR)
		return refOutcome{singular: true}
	}
	f := fact.(*sparseFactors)
	var o refOutcome
	o.runs, o.indexed = equalFactors(t, f, ref)
	if cf.Flops() != cr.Flops() {
		t.Fatalf("Factor charged %v, reference %v", cf.Flops(), cr.Flops())
	}

	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(3*i + 1))
	}
	b[n/2] = 0 // the forward sweep skips zero entries
	x, xr := make([]float64, n), make([]float64, n)
	f.Solve(x, b, &cf)
	ref.Solve(xr, b, &cr)
	equalBits(t, "Solve", x, xr)
	f.SolveT(x, b, &cf)
	ref.SolveT(xr, b, &cr)
	equalBits(t, "SolveT", x, xr)

	cf.Reset()
	cr.Reset()
	frozen := f.RefactorFlops()
	err = f.Refactor(ap, &cf)
	if ref.Refactor(ap, &cr) != nil {
		o.fellBack = true
		cr.Reset()
		if ref, errR = refFactor(ap, &cr); err != nil || errR != nil {
			bothSingular("Refactor's fallback Factor", err, errR)
			return o
		}
	} else if err == nil && cf.Flops() != frozen {
		t.Fatalf("frozen pivots hold in the reference, production fell back")
	}
	if err != nil {
		t.Fatalf("Refactor: %v", err)
	}
	equalFactors(t, f, ref)
	if cf.Flops() != cr.Flops() {
		t.Fatalf("Refactor charged %v, reference %v", cf.Flops(), cr.Flops())
	}
	f.Solve(x, b, &cf)
	ref.Solve(xr, b, &cr)
	equalBits(t, "Solve after Refactor", x, xr)
	return o
}

// TestSparseLUMatchesReference holds Factor, Solve, SolveT and Refactor to
// the pre-rework loops above on every shape (see matchReference), the frozen
// pivots holding under Refactor.
func TestSparseLUMatchesReference(t *testing.T) {
	one := sparse.NewCOO(1, 1)
	one.Append(0, 0, -3)
	two := sparse.NewCOO(2, 2)
	two.Append(0, 1, 2)
	two.Append(1, 0, 4)
	two.Append(1, 1, 1)
	mats := []struct {
		name string
		a    *sparse.CSR
	}{
		{"wideband", gen.DiagDominant(gen.DiagDominantOpts{N: 700, Band: 120, PerRow: 10, Margin: 0.016, Negative: true, Seed: 3})},
		{"narrowband", gen.DiagDominant(gen.DiagDominantOpts{N: 1500, Band: 12, PerRow: 7, Seed: 4})},
		{"cage", gen.CageLike(400, 5)},
		{"poisson", gen.Poisson2D(20, 17)},
		{"pivoting", pivotingHeavy(300, 6)},
		{"1x1", one.ToCSR()},
		{"2x2", two.ToCSR()},
	}
	for _, m := range mats {
		t.Run(m.name, func(t *testing.T) {
			o := matchReference(t, m.a, perturb(m.a, 1e-6))
			if o.singular || o.fellBack {
				t.Fatalf("%+v: the shape no longer factors, or its pivots no longer hold", o)
			}
			t.Logf("U columns: %d runs, %d indexed", o.runs, o.indexed)
			// The band shapes hold the run path; the pivoting shape holds
			// the indexed one.
			switch m.name {
			case "wideband", "narrowband":
				if o.indexed != 0 {
					t.Fatalf("%d indexed U columns: every column of a band shape should be a run", o.indexed)
				}
			case "pivoting":
				if o.indexed == 0 {
					t.Fatal("no indexed U column: the test no longer exercises the indexed path")
				}
			}
		})
	}
}

// benchShapes are the band shapes the solvers hand the sparse LU: one of the
// eight bands of lan_sync_wideband (fill 16×), one band of
// wan_async_narrowband, and a cage-like scattered pattern whose factors are
// nearly dense.
func benchShapes() []struct {
	name string
	a    *sparse.CSR
} {
	return []struct {
		name string
		a    *sparse.CSR
	}{
		{"wideband", gen.DiagDominant(gen.DiagDominantOpts{N: 1330, Band: 120, PerRow: 10, Margin: 0.002, Negative: true, Seed: 1})},
		{"narrowband", gen.DiagDominant(gen.DiagDominantOpts{N: 2500, Band: 12, PerRow: 7, Seed: 1})},
		{"cage", gen.CageLike(600, 1)},
	}
}

// BenchmarkSparseFactor prices Factor against the reference loops on each
// shape; ns/entry is host time per stored factor entry.
func BenchmarkSparseFactor(b *testing.B) {
	for _, m := range benchShapes() {
		var c vec.Counter
		f, err := (&SparseLU{}).Factor(m.a, &c)
		if err != nil {
			b.Fatal(err)
		}
		l, u := f.(*sparseFactors).NNZFactors()
		entries := float64(l + u)
		b.Run(m.name+"/prod", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&SparseLU{}).Factor(m.a, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
		})
		b.Run(m.name+"/ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := refFactor(m.a, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
		})
	}
}

// BenchmarkSparseSolve prices Solve against the reference loops on each
// shape; ns/entry is host time per stored factor entry, the unit a
// triangular sweep streams. A single factor solved in a tight loop stays in
// cache, so wideband8 solves eight factors of the wideband shape (seeds 1 to
// 8) in turn, as one pool worker meets the eight bands of lan_sync_wideband:
// together they leave the cache.
func BenchmarkSparseSolve(b *testing.B) {
	type shape struct {
		name string
		as   []*sparse.CSR
	}
	var shapes []shape
	for _, m := range benchShapes() {
		shapes = append(shapes, shape{m.name, []*sparse.CSR{m.a}})
	}
	wide8 := shape{name: "wideband8"}
	for seed := int64(1); seed <= 8; seed++ {
		wide8.as = append(wide8.as, gen.DiagDominant(gen.DiagDominantOpts{N: 1330, Band: 120, PerRow: 10, Margin: 0.002, Negative: true, Seed: seed}))
	}
	shapes = append(shapes, wide8)
	type solver func(x, b []float64, c *vec.Counter)
	for _, m := range shapes {
		var prod, ref []solver
		entries := 0
		for _, a := range m.as {
			f, err := (&SparseLU{}).Factor(a, nil)
			if err != nil {
				b.Fatal(err)
			}
			r, err := refFactor(a, nil)
			if err != nil {
				b.Fatal(err)
			}
			prod, ref = append(prod, f.Solve), append(ref, r.Solve)
			l, u := f.(*sparseFactors).NNZFactors()
			entries += l + u
		}
		n := m.as[0].Rows
		rhs, x := make([]float64, n), make([]float64, n)
		for i := range rhs {
			rhs[i] = math.Sin(float64(i))
		}
		for _, s := range []struct {
			name   string
			solves []solver
		}{{"prod", prod}, {"ref", ref}} {
			b.Run(m.name+"/"+s.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, solve := range s.solves {
						solve(x, rhs, nil)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
			})
		}
	}
}
