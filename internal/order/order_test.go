package order

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sparse"
)

func TestRCMIsPermutation(t *testing.T) {
	a := gen.Poisson2D(8, 9)
	p := RCM(a)
	if !sparse.IsPerm(p) {
		t.Fatalf("RCM did not return a permutation: %v", p)
	}
}

func TestRCMReducesBandwidthOnShuffledBandMatrix(t *testing.T) {
	// Take a narrow band matrix, scramble it, and check RCM recovers a
	// bandwidth close to the original.
	n := 120
	a := gen.Tridiag(n, -1, 4, -1)
	rng := rand.New(rand.NewSource(42))
	shuffle := rng.Perm(n)
	scrambled := a.Permute(shuffle, shuffle)
	if scrambled.Bandwidth() <= 3 {
		t.Skip("shuffle failed to scramble")
	}
	p := RCM(scrambled)
	after := BandAfter(scrambled, p)
	if after >= scrambled.Bandwidth()/4 {
		t.Fatalf("RCM bandwidth %d not much below scrambled %d", after, scrambled.Bandwidth())
	}
}

func TestRCMDisconnectedComponents(t *testing.T) {
	// Two independent 2x2 blocks plus an isolated diagonal vertex.
	co := sparse.NewCOO(5, 5)
	co.Append(0, 1, 1)
	co.Append(1, 0, 1)
	co.Append(2, 3, 1)
	co.Append(3, 2, 1)
	for i := 0; i < 5; i++ {
		co.Append(i, i, 2)
	}
	p := RCM(co.ToCSR())
	if !sparse.IsPerm(p) {
		t.Fatalf("not a permutation: %v", p)
	}
}

func TestRCMSingleVertex(t *testing.T) {
	p := RCM(sparse.Identity(1))
	if len(p) != 1 || p[0] != 0 {
		t.Fatalf("RCM(1x1) = %v", p)
	}
}

func TestMaxTransversalZeroFreeDiagonal(t *testing.T) {
	// Matrix with zero diagonal that needs a row permutation.
	co := sparse.NewCOO(3, 3)
	co.Append(0, 1, 2)
	co.Append(1, 2, 3)
	co.Append(2, 0, 4)
	a := co.ToCSR()
	p, err := MaxTransversal(a)
	if err != nil {
		t.Fatal(err)
	}
	pa := a.Permute(p, nil)
	for i := 0; i < 3; i++ {
		if pa.At(i, i) == 0 {
			t.Fatalf("diagonal (%d,%d) is zero after transversal", i, i)
		}
	}
}

func TestMaxTransversalAlreadyGood(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 40, Seed: 1})
	p, err := MaxTransversal(a)
	if err != nil {
		t.Fatal(err)
	}
	pa := a.Permute(p, nil)
	for i := 0; i < 40; i++ {
		if pa.At(i, i) == 0 {
			t.Fatalf("zero diagonal at %d", i)
		}
	}
}

func TestMaxTransversalStructurallySingular(t *testing.T) {
	// Column 1 is entirely zero: no matching exists.
	co := sparse.NewCOO(2, 2)
	co.Append(0, 0, 1)
	co.Append(1, 0, 1)
	if _, err := MaxTransversal(co.ToCSR()); err != ErrStructurallySingular {
		t.Fatalf("err = %v, want ErrStructurallySingular", err)
	}
}

func TestMaxTransversalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		a := gen.RandomDominant(n, 1+rng.Intn(5), 0.3, rng)
		p, err := MaxTransversal(a)
		if err != nil {
			return false // dominant matrices always have a transversal
		}
		if !sparse.IsPerm(p) {
			return false
		}
		pa := a.Permute(p, nil)
		for i := 0; i < n; i++ {
			if pa.At(i, i) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBandAfterIdentityPerm(t *testing.T) {
	a := gen.Tridiag(10, -1, 2, -1)
	if got := BandAfter(a, nil); got != a.Bandwidth() {
		t.Fatalf("BandAfter(nil) = %d, want %d", got, a.Bandwidth())
	}
	id := make([]int, 10)
	for i := range id {
		id[i] = i
	}
	if got := BandAfter(a, id); got != a.Bandwidth() {
		t.Fatalf("BandAfter(id) = %d, want %d", got, a.Bandwidth())
	}
}

// refSymAdjacency is the adjacency RCM built before it kept one CSR:
// per-vertex lists of A+Aᵀ without self-loops, grown by append, sorted and
// compacted.
func refSymAdjacency(a *sparse.CSR) [][]int {
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

// refRCM is RCM on refSymAdjacency's lists, with a fresh queue and neighbour
// slice per vertex sorted by sort.Slice.
func refRCM(a *sparse.CSR) []int {
	n := a.Rows
	adj := refSymAdjacency(a)
	deg := make([]int, n)
	for i := range adj {
		deg[i] = len(adj[i])
	}
	levels := make([]int, n)
	for i := range levels {
		levels[i] = -1
	}
	bfs := func(root int) ([]int, int) {
		levels[root] = 0
		seen, ecc := []int{root}, 0
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
	peripheral := func(start int) int {
		root, lastEcc := start, -1
		for iter := 0; iter < 8; iter++ {
			seen, ecc := bfs(root)
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
			lastEcc, root = ecc, best
		}
		return root
	}
	visited := make([]bool, n)
	var orderOldByNew []int
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := peripheral(start)
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
	perm := make([]int, n)
	for newIdx, old := range orderOldByNew {
		perm[old] = n - 1 - newIdx
	}
	return perm
}

// TestRCMMatchesReference holds the CSR adjacency and the RCM built on it to
// the per-vertex-list reference: on the benchmark's shapes as the solvers
// order them (dslu after its static-pivoting row permutation, the band
// solvers as generated) and on random nonsymmetric patterns with empty rows,
// isolated vertices and several components.
func TestRCMMatchesReference(t *testing.T) {
	var cases []*sparse.CSR
	for _, a := range []*sparse.CSR{
		gen.CageLike(39082/64, 1011),
		gen.CageLike(130228/64, 1012),
		gen.CageLike(178/4, 1),
		gen.DiagDominant(gen.DiagDominantOpts{N: 500000 / 64, Band: 12, PerRow: 7, Margin: 0.4, Seed: 500}),
		gen.DiagDominant(gen.DiagDominantOpts{N: 10000 / 16, Band: 120, PerRow: 10, Negative: true, Seed: 1}),
		gen.DiagDominant(gen.DiagDominantOpts{N: 12000 / 16, Band: 220, PerRow: 10, Negative: true, Seed: 1}),
		gen.Poisson2D(13, 11),
	} {
		p, err := MaxTransversal(a)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, a, a.Permute(p, nil))
	}
	rng := rand.New(rand.NewSource(7))
	for range 40 {
		n := 1 + rng.Intn(150)
		co := sparse.NewCOO(n, n)
		for range rng.Intn(3 * n) {
			co.Append(rng.Intn(n), rng.Intn(n), 1)
		}
		cases = append(cases, co.ToCSR())
	}
	for i, a := range cases {
		g, want := symAdjacency(a), refSymAdjacency(a)
		if len(g.ptr) != len(want)+1 {
			t.Fatalf("case %d (n=%d): %d offsets", i, a.Rows, len(g.ptr))
		}
		for v := range want {
			if !slices.Equal(g.adj(v), want[v]) {
				t.Fatalf("case %d (n=%d): vertex %d has neighbours %v, reference %v", i, a.Rows, v, g.adj(v), want[v])
			}
		}
		if got, want := RCM(a), refRCM(a); !slices.Equal(got, want) {
			t.Fatalf("case %d (n=%d): RCM %v, reference %v", i, a.Rows, got, want)
		}
	}
}
