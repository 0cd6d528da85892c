// Package order implements the fill-reducing and stability orderings used by
// the direct solvers: reverse Cuthill–McKee (bandwidth reduction before the
// banded LU and the distributed LU baseline) and a maximum-transversal row
// permutation (static pivoting, the strategy SuperLU_DIST uses and that our
// distributed baseline adopts).
package order

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sort"

	"repro/internal/sparse"
)

// ErrStructurallySingular is returned by MaxTransversal when no row
// permutation can produce a zero-free diagonal.
var ErrStructurallySingular = errors.New("order: matrix is structurally singular")

// RCM computes the reverse Cuthill–McKee ordering of the symmetrized pattern
// of A (A + Aᵀ). It returns perm with perm[old] = new, suitable for
// (*sparse.CSR).Permute(perm, perm). Disconnected components are ordered one
// after another, each started from a pseudo-peripheral vertex.
func RCM(a *sparse.CSR) []int {
	if a.Rows != a.Cols {
		panic("order: RCM needs a square matrix")
	}
	n := a.Rows
	g := symAdjacency(a)
	visited := make([]bool, n)
	levels := make([]int, n)
	for i := range levels {
		levels[i] = -1
	}
	// The BFS queue is the Cuthill–McKee order itself: vertices leave the
	// queue in the order they join it.
	orderOldByNew := make([]int, 0, n)
	var seen, nbr []int
	byDegree := func(v, w int) int {
		return cmp.Or(cmp.Compare(g.degree(v), g.degree(w)), cmp.Compare(v, w))
	}
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		var root int
		root, seen = pseudoPeripheral(g, levels, start, seen)
		// BFS from root, neighbors in increasing-degree order.
		visited[root] = true
		orderOldByNew = append(orderOldByNew, root)
		for head := len(orderOldByNew) - 1; head < len(orderOldByNew); head++ {
			nbr = nbr[:0]
			for _, w := range g.adj(orderOldByNew[head]) {
				if !visited[w] {
					visited[w] = true
					nbr = append(nbr, w)
				}
			}
			slices.SortFunc(nbr, byDegree)
			orderOldByNew = append(orderOldByNew, nbr...)
		}
	}
	// Reverse the Cuthill–McKee order and convert to perm[old]=new.
	perm := make([]int, n)
	for newIdx, old := range orderOldByNew {
		perm[old] = n - 1 - newIdx
	}
	return perm
}

// graph is a symmetric pattern in CSR form: the neighbours of v are
// idx[ptr[v]:ptr[v+1]], ascending and duplicate-free.
type graph struct{ ptr, idx []int }

func (g graph) adj(v int) []int  { return g.idx[g.ptr[v]:g.ptr[v+1]] }
func (g graph) degree(v int) int { return g.ptr[v+1] - g.ptr[v] }

// symAdjacency builds the adjacency of A+Aᵀ excluding self-loops: row i is
// the merge of row i of A and row i of Aᵀ, both sorted by the CSR invariant.
// No map is involved, here or anywhere else on the way to a permutation:
// iteration order is part of the result (it breaks every tie), and a map's
// would differ from call to call. The pattern of Aᵀ is a counting sort of
// A's column indices, values left out: while column j fills, tptr[j] runs
// up to the start of column j+1, so one shift restores the pointers.
func symAdjacency(a *sparse.CSR) graph {
	n := a.Rows
	tptr, tidx := make([]int, n+1), make([]int, len(a.ColInd))
	for _, j := range a.ColInd {
		tptr[j+1]++
	}
	for j := 0; j < n; j++ {
		tptr[j+1] += tptr[j]
	}
	for i := 0; i < n; i++ {
		for _, j := range a.ColInd[a.RowPtr[i]:a.RowPtr[i+1]] {
			tidx[tptr[j]] = i
			tptr[j]++
		}
	}
	copy(tptr[1:], tptr[:n])
	tptr[0] = 0
	g := graph{ptr: make([]int, n+1), idx: make([]int, 0, 2*len(a.ColInd))}
	for i := 0; i < n; i++ {
		x, y := a.ColInd[a.RowPtr[i]:a.RowPtr[i+1]], tidx[tptr[i]:tptr[i+1]]
		for len(x) > 0 || len(y) > 0 {
			var j int
			switch {
			case len(y) == 0 || len(x) > 0 && x[0] < y[0]:
				j, x = x[0], x[1:]
			case len(x) == 0 || y[0] < x[0]:
				j, y = y[0], y[1:]
			default:
				j, x, y = x[0], x[1:], y[1:]
			}
			if j != i {
				g.idx = append(g.idx, j)
			}
		}
		g.ptr[i+1] = len(g.idx)
	}
	return g
}

// pseudoPeripheral finds a vertex of (approximately) maximum eccentricity in
// the connected component of start, using the standard George–Liu iteration.
// levels is scratch of length n holding -1 everywhere, and is left that way;
// seen is scratch for bfsLevels, returned for the next call.
func pseudoPeripheral(g graph, levels []int, start int, seen []int) (int, []int) {
	root := start
	lastEcc := -1
	for iter := 0; iter < 8; iter++ {
		var ecc int
		seen, ecc = bfsLevels(g, levels, root, seen)
		// Pick the minimum-degree vertex in the last level, the lowest
		// numbered among equals.
		best := -1
		for _, v := range seen {
			if levels[v] == ecc && (best == -1 || g.degree(v) < g.degree(best) || g.degree(v) == g.degree(best) && v < best) {
				best = v
			}
		}
		for _, v := range seen {
			levels[v] = -1
		}
		if ecc <= lastEcc || best == root {
			break
		}
		lastEcc = ecc
		root = best
	}
	return root, seen
}

// bfsLevels writes into levels the distance from root of every vertex of
// root's component and returns those vertices, in seen's storage, and the
// largest distance.
func bfsLevels(g graph, levels []int, root int, seen []int) ([]int, int) {
	levels[root] = 0
	seen = append(seen[:0], root)
	ecc := 0
	for head := 0; head < len(seen); head++ {
		v := seen[head]
		for _, w := range g.adj(v) {
			if levels[w] < 0 {
				levels[w] = levels[v] + 1
				ecc = levels[w]
				seen = append(seen, w)
			}
		}
	}
	return seen, ecc
}

// MaxTransversal computes a row permutation that puts a structurally
// nonzero, magnitude-favoured entry on every diagonal position: the returned
// perm satisfies perm[oldRow] = newRow and A.Permute(perm, nil) has a
// zero-free diagonal. Rows are matched to columns greedily by descending
// magnitude first, then repaired with augmenting paths.
func MaxTransversal(a *sparse.CSR) ([]int, error) {
	if a.Rows != a.Cols {
		panic("order: MaxTransversal needs a square matrix")
	}
	n := a.Rows
	// rowOf[j] = row currently matched to column j, -1 if none.
	rowOf := make([]int, n)
	colOf := make([]int, n)
	for i := range rowOf {
		rowOf[i] = -1
		colOf[i] = -1
	}
	// Greedy pass: each row claims its largest-magnitude unmatched column.
	type entry struct {
		col int
		abs float64
	}
	rowEntries := make([][]entry, n)
	for i := 0; i < n; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		es := make([]entry, 0, hi-lo)
		for p := lo; p < hi; p++ {
			if a.Val[p] != 0 {
				es = append(es, entry{a.ColInd[p], math.Abs(a.Val[p])})
			}
		}
		sort.Slice(es, func(x, y int) bool { return es[x].abs > es[y].abs })
		rowEntries[i] = es
		for _, e := range es {
			if rowOf[e.col] == -1 {
				rowOf[e.col] = i
				colOf[i] = e.col
				break
			}
		}
	}
	// Augmenting paths for unmatched rows (Kuhn's algorithm).
	var visited []bool
	var try func(i int) bool
	try = func(i int) bool {
		for _, e := range rowEntries[i] {
			if visited[e.col] {
				continue
			}
			visited[e.col] = true
			if rowOf[e.col] == -1 || try(rowOf[e.col]) {
				rowOf[e.col] = i
				colOf[i] = e.col
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		if colOf[i] != -1 {
			continue
		}
		visited = make([]bool, n)
		if !try(i) {
			return nil, ErrStructurallySingular
		}
	}
	// Row i should move to position colOf[i] so that new diagonal (j,j)
	// holds the matched entry A(i, colOf[i]).
	perm := make([]int, n)
	for i := 0; i < n; i++ {
		perm[i] = colOf[i]
	}
	return perm, nil
}

// BandAfter returns the bandwidth of A after applying the symmetric
// permutation perm to both rows and columns (a cheap quality metric used in
// tests and by the solver's ordering heuristics).
func BandAfter(a *sparse.CSR, perm []int) int {
	bw := 0
	for i := 0; i < a.Rows; i++ {
		pi := i
		if perm != nil {
			pi = perm[i]
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			pj := a.ColInd[p]
			if perm != nil {
				pj = perm[pj]
			}
			d := pi - pj
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}
