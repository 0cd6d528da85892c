package order

import (
	"container/heap"
	"slices"

	"repro/internal/sparse"
)

// MinDegree computes a minimum-degree ordering of the symmetrized pattern
// of A (A + Aᵀ): vertices are eliminated greedily by current degree in the
// elimination graph, with the eliminated vertex's neighborhood turned into
// a clique. It returns perm with perm[old] = new. For scattered patterns it
// reduces fill far below RCM; for banded patterns RCM usually wins — the
// sparse LU exposes both.
//
// This is the classical (non-supernodal) algorithm: O(fill) work and
// memory, intended for the moderate dimensions the solvers factor per band.
func MinDegree(a *sparse.CSR) []int {
	if a.Rows != a.Cols {
		panic("order: MinDegree needs a square matrix")
	}
	n := a.Rows
	adj := symAdjacency(a)
	pq := make(degreeHeap, 0, n)
	stamp := make([]int, n) // heap-entry versions for lazy deletion
	for i := 0; i < n; i++ {
		pq = append(pq, degreeEntry{node: i, degree: len(adj[i])})
	}
	heap.Init(&pq)
	perm := make([]int, n)
	eliminated := make([]bool, n)
	next := 0
	for pq.Len() > 0 {
		e := heap.Pop(&pq).(degreeEntry)
		if eliminated[e.node] || e.version != stamp[e.node] {
			continue // stale entry
		}
		v := e.node
		eliminated[v] = true
		perm[v] = next
		next++
		// Turn the remaining neighborhood into a clique: every neighbour's
		// list becomes its union with the neighbourhood, less v and itself.
		// Eliminated vertices were taken out of every list at their turn.
		nbrs := adj[v]
		for _, w := range nbrs {
			merged := slices.Concat(adj[w], nbrs)
			slices.Sort(merged)
			merged = slices.DeleteFunc(slices.Compact(merged), func(u int) bool { return u == v || u == w })
			adj[w] = merged
		}
		adj[v] = nil
		for _, w := range nbrs {
			stamp[w]++
			heap.Push(&pq, degreeEntry{node: w, degree: len(adj[w]), version: stamp[w]})
		}
	}
	return perm
}

type degreeEntry struct {
	node    int
	degree  int
	version int
}

type degreeHeap []degreeEntry

func (h degreeHeap) Len() int { return len(h) }
func (h degreeHeap) Less(i, j int) bool {
	if h[i].degree != h[j].degree {
		return h[i].degree < h[j].degree
	}
	return h[i].node < h[j].node
}
func (h degreeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *degreeHeap) Push(x any)   { *h = append(*h, x.(degreeEntry)) }
func (h *degreeHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
