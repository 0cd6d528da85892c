package plan

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// testSpec builds an L-band uniform decomposition of an n×n banded test
// matrix with the owner-weights scheme (each column's single contributor is
// the band owning it), mapped cyclically onto nranks.
func testSpec(t *testing.T, n, l, nranks int) (*sparse.CSR, Spec) {
	t.Helper()
	a := gen.DiagDominant(gen.DiagDominantOpts{N: n, Band: n / 4, PerRow: 6, Seed: 7})
	bands := make([]Band, l)
	for i := range bands {
		lo := i * n / l
		hi := (i + 1) * n / l
		bands[i] = Band{Start: lo, End: hi, Lo: lo, Hi: hi}
	}
	ownerBand := func(j int) int {
		for i, b := range bands {
			if j >= b.Start && j < b.End {
				return i
			}
		}
		t.Fatalf("column %d in no band", j)
		return -1
	}
	return a, Spec{
		N:            n,
		Bands:        bands,
		NRanks:       nranks,
		Owner:        func(b int) int { return b % nranks },
		Contributors: func(j int) []int { return []int{ownerBand(j)} },
		Weight: func(k, j int) float64 {
			if ownerBand(j) == k {
				return 1
			}
			return 0
		},
	}
}

func TestBuildConsistency(t *testing.T) {
	a, sp := testSpec(t, 240, 6, 3)
	p, err := Build(a, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Segs) == 0 {
		t.Fatal("no segments for a banded matrix")
	}
	for i, s := range p.Segs {
		if s.Index != i {
			t.Fatalf("seg %d has Index %d", i, s.Index)
		}
		if i > 0 {
			prev := p.Segs[i-1]
			if s.From < prev.From || (s.From == prev.From && s.To <= prev.To) {
				t.Fatalf("segs not in canonical order at %d: (%d,%d) after (%d,%d)",
					i, s.From, s.To, prev.From, prev.To)
			}
		}
		for k := range s.Cols {
			if s.Loc[k] != s.Cols[k]-sp.Bands[s.From].Lo {
				t.Fatalf("seg %d->%d: Loc[%d]=%d for col %d", s.From, s.To, k, s.Loc[k], s.Cols[k])
			}
			if p.DepCols[s.To][s.Pos[k]] != s.Cols[k] {
				t.Fatalf("seg %d->%d: Pos[%d] points at col %d, want %d",
					s.From, s.To, k, p.DepCols[s.To][s.Pos[k]], s.Cols[k])
			}
			if s.Weights[k] == 0 {
				t.Fatalf("seg %d->%d carries a zero weight", s.From, s.To)
			}
		}
	}
}

// TestSenderReceiverAgree: for every send group there must be a matching
// recv group on the peer with the same segments in the same order — the
// property that lets both sides pack/unpack one message with no handshake.
func TestSenderReceiverAgree(t *testing.T) {
	a, sp := testSpec(t, 240, 6, 3)
	p, err := Build(a, sp)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p.NRanks; r++ {
		for gi, g := range p.Ranks[r].Send {
			if gi > 0 && g.Peer <= p.Ranks[r].Send[gi-1].Peer {
				t.Fatalf("rank %d send groups not peer-ascending", r)
			}
			var match *PeerIO
			for i := range p.Ranks[g.Peer].Recv {
				if p.Ranks[g.Peer].Recv[i].Peer == r {
					match = &p.Ranks[g.Peer].Recv[i]
				}
			}
			if match == nil {
				t.Fatalf("rank %d sends to %d but %d has no recv group", r, g.Peer, g.Peer)
			}
			if match.Vals != g.Vals || len(match.Segs) != len(g.Segs) {
				t.Fatalf("group shape mismatch %d->%d: %d/%d vals, %d/%d segs",
					r, g.Peer, g.Vals, match.Vals, len(g.Segs), len(match.Segs))
			}
			for i := range g.Segs {
				if g.Segs[i] != match.Segs[i] {
					t.Fatalf("segment order differs in group %d->%d at %d", r, g.Peer, i)
				}
			}
			vals := 0
			for _, s := range g.Segs {
				if p.Owner[s.From] != r || p.Owner[s.To] != g.Peer {
					t.Fatalf("seg %d->%d landed in group %d->%d", s.From, s.To, r, g.Peer)
				}
				vals += len(s.Cols)
			}
			if vals != g.Vals {
				t.Fatalf("group %d->%d Vals=%d, segments carry %d", r, g.Peer, g.Vals, vals)
			}
		}
	}
}

// TestLocalSegments: with more bands than ranks, segments between two bands
// of the same rank must appear in Local and nowhere in Send/Recv.
func TestLocalSegments(t *testing.T) {
	a, sp := testSpec(t, 240, 6, 2)
	p, err := Build(a, sp)
	if err != nil {
		t.Fatal(err)
	}
	localCount := 0
	for r := 0; r < p.NRanks; r++ {
		rp := &p.Ranks[r]
		localCount += len(rp.Local)
		for _, s := range rp.Local {
			if p.Owner[s.From] != r || p.Owner[s.To] != r {
				t.Fatalf("rank %d local seg %d->%d not rank-local", r, s.From, s.To)
			}
		}
		for i := 1; i < len(rp.Local); i++ {
			a, b := rp.Local[i-1], rp.Local[i]
			if b.To < a.To || (b.To == a.To && b.From <= a.From) {
				t.Fatalf("rank %d local segs out of apply order", r)
			}
		}
	}
	if localCount == 0 {
		t.Fatal("cyclic 6-band/2-rank map must produce local segments")
	}
	// Single-band-per-rank: no local segments, one seg per group.
	a1, sp1 := testSpec(t, 240, 4, 4)
	p1, err := Build(a1, sp1)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if len(p1.Ranks[r].Local) != 0 {
			t.Fatalf("rank %d has local segments in the identity map", r)
		}
		for _, g := range p1.Ranks[r].Send {
			if len(g.Segs) != 1 {
				t.Fatalf("identity map: group with %d segments", len(g.Segs))
			}
		}
	}
}

func TestMaxSendVals(t *testing.T) {
	a, sp := testSpec(t, 240, 6, 3)
	p, err := Build(a, sp)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p.NRanks; r++ {
		max := 0
		for _, g := range p.Ranks[r].Send {
			if g.Vals > max {
				max = g.Vals
			}
		}
		if got := p.MaxSendVals(r); got != max {
			t.Fatalf("rank %d: MaxSendVals=%d, want %d", r, got, max)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	a, sp := testSpec(t, 240, 6, 3)
	bad := sp
	bad.Bands = nil
	if _, err := Build(a, bad); err == nil {
		t.Fatal("no error for empty band list")
	}
	bad = sp
	bad.NRanks = 0
	if _, err := Build(a, bad); err == nil {
		t.Fatal("no error for zero ranks")
	}
	bad = sp
	bad.Owner = func(int) int { return 99 }
	if _, err := Build(a, bad); err == nil {
		t.Fatal("no error for out-of-range owner")
	}
}

// TestRelayedPlan: a plan is relayed only over two or more clusters, and
// then exactly its inter-cluster groups are relayed, through the lowest rank
// of each cluster, with a staging slot per group at each end.
func TestRelayedPlan(t *testing.T) {
	a, sp := testSpec(t, 240, 6, 6)
	for _, cl := range [][]int{nil, {3, 3, 3, 3, 3, 3}} {
		sp.Cluster = cl
		p, err := Build(a, sp)
		if err != nil {
			t.Fatal(err)
		}
		for r := range p.Ranks {
			if p.Ranks[r].Relay != nil {
				t.Fatalf("cluster %v: rank %d has relay tables", cl, r)
			}
			for _, g := range p.Ranks[r].Send {
				if g.Relayed() {
					t.Fatalf("cluster %v: group %d->%d relayed", cl, r, g.Peer)
				}
			}
		}
	}
	sp.Cluster = []int{1, 0, 1, 0, 2, 2}
	p, err := Build(a, sp)
	if err != nil {
		t.Fatal(err)
	}
	agg := []int{0, 1, 0, 1, 4, 4}
	relayed := 0
	for r := range p.Ranks {
		rl := p.Ranks[r].Relay
		if rl == nil || rl.Agg != agg[r] {
			t.Fatalf("rank %d: relay %+v, want aggregator %d", r, rl, agg[r])
		}
		for _, g := range p.Ranks[r].Send {
			if g.Relayed() != (sp.Cluster[r] != sp.Cluster[g.Peer]) || g.Via != [2]int{agg[r], agg[g.Peer]} {
				t.Fatalf("group %d->%d: via %v", r, g.Peer, g.Via)
			}
			if g.Relayed() {
				relayed++
			}
		}
		for _, g := range p.Ranks[r].Recv {
			if g.Relayed() && rl.Slots[g.Slot] != g.Vals {
				t.Fatalf("group %d->%d: slot of %d values, want %d", g.Peer, r, rl.Slots[g.Slot], g.Vals)
			}
		}
	}
	if relayed == 0 {
		t.Fatal("no relayed group")
	}
	sp.Cluster = []int{0, 1}
	if _, err := Build(a, sp); err == nil {
		t.Fatal("no error for a cluster list of the wrong length")
	}
}
