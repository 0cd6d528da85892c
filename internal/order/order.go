// Package order implements the fill-reducing and stability orderings used by
// the direct solvers: reverse Cuthill–McKee (bandwidth reduction before the
// banded LU and the distributed LU baseline) and a maximum-transversal row
// permutation (static pivoting, the strategy SuperLU_DIST uses and that our
// distributed baseline adopts).
package order

import (
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
	adj := symAdjacency(a)
	deg := make([]int, n)
	for i := range adj {
		deg[i] = len(adj[i])
	}
	visited := make([]bool, n)
	levels := make([]int, n)
	for i := range levels {
		levels[i] = -1
	}
	orderOldByNew := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := pseudoPeripheral(adj, deg, levels, start)
		// BFS from root, neighbors in increasing-degree order.
		queue := []int{root}
		visited[root] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			orderOldByNew = append(orderOldByNew, v)
			nbr := make([]int, 0, len(adj[v]))
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					nbr = append(nbr, w)
				}
			}
			sort.Slice(nbr, func(i, j int) bool {
				if deg[nbr[i]] != deg[nbr[j]] {
					return deg[nbr[i]] < deg[nbr[j]]
				}
				return nbr[i] < nbr[j]
			})
			queue = append(queue, nbr...)
		}
	}
	// Reverse the Cuthill–McKee order and convert to perm[old]=new.
	perm := make([]int, n)
	for newIdx, old := range orderOldByNew {
		perm[old] = n - 1 - newIdx
	}
	return perm
}

// symAdjacency builds the adjacency lists of A+Aᵀ excluding self-loops,
// each sorted ascending. No map is involved, here or anywhere else on the way
// to a permutation: iteration order is part of the result (it breaks every
// tie), and a map's would differ from call to call.
func symAdjacency(a *sparse.CSR) [][]int {
	adj := make([][]int, a.Rows)
	for i := range adj {
		for _, j := range a.ColInd[a.RowPtr[i]:a.RowPtr[i+1]] {
			if i != j {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	for i := range adj {
		slices.Sort(adj[i])
		adj[i] = slices.Compact(adj[i])
	}
	return adj
}

// pseudoPeripheral finds a vertex of (approximately) maximum eccentricity in
// the connected component of start, using the standard George–Liu iteration.
// levels is scratch of length n holding -1 everywhere, and is left that way.
func pseudoPeripheral(adj [][]int, deg, levels []int, start int) int {
	root := start
	lastEcc := -1
	for iter := 0; iter < 8; iter++ {
		seen, ecc := bfsLevels(adj, levels, root)
		// Pick the minimum-degree vertex in the last level, the lowest
		// numbered among equals.
		best := -1
		for _, v := range seen {
			if levels[v] == ecc && (best == -1 || deg[v] < deg[best] || deg[v] == deg[best] && v < best) {
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
	return root
}

// bfsLevels writes into levels the distance from root of every vertex of
// root's component and returns those vertices with the largest distance.
func bfsLevels(adj [][]int, levels []int, root int) ([]int, int) {
	levels[root] = 0
	seen := []int{root}
	ecc := 0
	for head := 0; head < len(seen); head++ {
		v := seen[head]
		for _, w := range adj[v] {
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
