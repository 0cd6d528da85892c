// Package plan builds the communication plan shared by the distributed
// multisplitting drivers: which boundary columns each band needs from which
// other band, how those per-band segments coalesce into one packed message
// per rank pair and iteration, and in which order a receiver applies them.
// The plan is computed once, from the decomposition geometry and the matrix
// sparsity, with a single receiver-driven sweep that also yields the
// sender-side packing lists — the construction that used to be duplicated
// (and, on the sender side, recomputed per peer) in the solver drivers.
//
// Orderings are canonical so that results are deterministic and sender and
// receiver agree on the byte layout of a packed message without any
// handshake: segments sort by (From, To), peer groups by peer rank, and the
// segments inside a group again by (From, To).
package plan

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// Band is the row range of one band of the decomposition: it owns rows
// [Start, End) and extends (with overlap) over [Lo, Hi).
type Band struct {
	// Start is the first owned row.
	Start int
	// End is one past the last owned row.
	End int
	// Lo is the first row of the (overlap-extended) band.
	Lo int
	// Hi is one past the last row of the extended band.
	Hi int
}

// Spec is the decomposition geometry the builder consumes. The closures
// decouple the package from the solver's Decomposition type: Owner maps a
// band to the rank that computes it, Contributors lists the bands whose
// solution contributes to a global column, and Weight is the multisplitting
// weight of band k's value for column j (zero contributions are skipped).
type Spec struct {
	// N is the global system size.
	N int
	// Bands lists the band geometry, indexed by band.
	Bands []Band
	// NRanks is the number of processes the bands are mapped onto.
	NRanks int
	// Owner returns the rank computing a band.
	Owner func(band int) int
	// Contributors returns the bands contributing to global column j.
	Contributors func(j int) []int
	// ContributorsInto, when non-nil, is used instead of Contributors: it
	// appends the contributing bands for column j to buf[:0] and returns the
	// slice, letting the builder reuse one scratch buffer across the sweep
	// instead of allocating a list per column.
	ContributorsInto func(j int, buf []int) []int
	// Weight returns band k's multisplitting weight for global column j.
	Weight func(k, j int) float64
	// Cluster, when non-nil, gives each rank's cluster: ranks with equal
	// values share one. Over two or more clusters the plan is relayed (see
	// Relay); without it, or over one cluster, every group is direct.
	Cluster []int
}

// Seg is the unit of exchange: the boundary values band From contributes to
// band To (or to itself via a local apply when both live on one rank). All
// slices have one entry per transferred value.
type Seg struct {
	// Index is the segment's position in Plan.Segs (canonical order).
	Index int
	// From is the band producing the values.
	From int
	// To is the band consuming them.
	To int
	// Cols holds the global column indices.
	Cols []int
	// Loc holds the producer-local row indices (Cols[i] - Bands[From].Lo).
	Loc []int
	// Pos holds the consumer-side positions into To's dependency-column list.
	Pos []int
	// Weights holds the multisplitting weights applied on the consumer side.
	Weights []float64
}

// PeerIO groups every segment a rank exchanges with one peer into a single
// packed message per iteration: values are concatenated in Segs order, so
// the group's wire payload has exactly Vals floats after the header.
type PeerIO struct {
	// Peer is the remote rank.
	Peer int
	// Segs lists the member segments in canonical (From, To) order.
	Segs []*Seg
	// Vals is the total number of values in the packed message.
	Vals int
	// Via holds, in a relayed plan, the group's aggregator hops: the origin
	// cluster's, then the destination cluster's (equal within a cluster).
	Via [2]int
	// Slot is the staging slot (Relay.Slots) of a relayed group's record at
	// this rank.
	Slot int
}

// Relayed reports whether the group crosses clusters in a relayed plan.
func (g *PeerIO) Relayed() bool { return g.Via[0] != g.Via[1] }

// RankPlan is one rank's view of the plan.
type RankPlan struct {
	// Rank is the process this view belongs to.
	Rank int
	// Local lists the segments between two bands of this rank, in the apply
	// order (To ascending, then From) the drivers use.
	Local []*Seg
	// Send lists the outgoing peer groups, peer-ascending.
	Send []PeerIO
	// Recv lists the incoming peer groups, peer-ascending.
	Recv []PeerIO
	// Relay is this rank's part of a relayed plan (nil in a direct plan).
	Relay *Relay
}

// Relay is one rank's route tables in a relayed plan. Each cluster's lowest
// rank is its aggregator: a member sends its inter-cluster groups up to it
// in one batch, aggregators exchange one WAN batch per cluster pair, and the
// destination's aggregator sends one batch down to each member; a record
// waits in a staging slot at each rank it passes. Every link is listed, used
// or not: a reducing round sends a message over each.
type Relay struct {
	// Agg is the aggregator of this rank's cluster (the rank itself when it
	// aggregates).
	Agg int
	// Slots gives the value count of each staging slot's record.
	Slots []int
	// Local lists an aggregator's links to its other members (In: up, Out:
	// down), ascending; a member's one link to Agg (In: down, Out: up).
	Local []Link
	// Remote lists an aggregator's links to the other aggregators, ascending.
	Remote []Link
}

// Link is one relay edge: the groups its messages may carry, in wire
// ((origin, dst)-ascending) order.
type Link struct {
	// Peer is the rank at the other end.
	Peer int
	// In and Out list the groups received from and sent to Peer.
	In, Out []Hop
}

// Hop is one relayed group on a link (32-bit: a hop per group and link).
type Hop struct {
	// Origin and Dst are the group's sending and receiving ranks.
	Origin, Dst int32
	// Slot is the staging slot of the record at the table's rank.
	Slot int32
}

// Plan is the complete communication plan of a decomposition mapped onto a
// set of ranks.
type Plan struct {
	// NRanks is the number of processes.
	NRanks int
	// Bands echoes the band geometry the plan was built from.
	Bands []Band
	// Owner maps each band to its rank.
	Owner []int
	// Cluster echoes Spec.Cluster.
	Cluster []int
	// DepCols lists, per band, the global columns outside the band that its
	// rows couple to — the band's external dependency, in ascending order.
	DepCols [][]int
	// Segs lists every segment in canonical (From, To) order.
	Segs []*Seg
	// Ranks holds the per-rank views, indexed by rank.
	Ranks []RankPlan
}

// Build computes the plan for matrix a under the given geometry. For every
// band it collects the external dependency columns from the sparsity, then
// assigns each (column, contributor) pair to the segment between the two
// bands; the same sweep fills consumer positions and producer-local indices,
// so no side ever reconstructs the other's layout.
func Build(a *sparse.CSR, sp Spec) (*Plan, error) {
	l := len(sp.Bands)
	if l == 0 {
		return nil, fmt.Errorf("plan: no bands")
	}
	if sp.NRanks <= 0 {
		return nil, fmt.Errorf("plan: NRanks = %d", sp.NRanks)
	}
	if sp.Cluster != nil && len(sp.Cluster) != sp.NRanks {
		return nil, fmt.Errorf("plan: %d cluster entries for %d ranks", len(sp.Cluster), sp.NRanks)
	}
	p := &Plan{
		NRanks:  sp.NRanks,
		Bands:   append([]Band(nil), sp.Bands...),
		Owner:   make([]int, l),
		Cluster: sp.Cluster,
		DepCols: make([][]int, l),
	}
	for b := range sp.Bands {
		r := sp.Owner(b)
		if r < 0 || r >= sp.NRanks {
			return nil, fmt.Errorf("plan: band %d owned by rank %d of %d", b, r, sp.NRanks)
		}
		p.Owner[b] = r
	}
	contrib := sp.ContributorsInto
	if contrib == nil {
		contrib = func(j int, _ []int) []int { return sp.Contributors(j) }
	}
	// First sweep: dependency columns per band and entry counts per segment,
	// so the second sweep can fill exactly-sized storage. The per-entry slices
	// of all segments sub-slice four shared backing arrays — the plan costs a
	// handful of allocations however many segments it has.
	counts := make(map[[2]int]int)
	var cbuf []int
	total := 0
	for b, band := range sp.Bands {
		left := a.ColumnsUsed(band.Lo, band.Hi, 0, band.Lo)
		right := a.ColumnsUsed(band.Lo, band.Hi, band.Hi, sp.N)
		dep := make([]int, 0, len(left)+len(right))
		dep = append(dep, left...)
		dep = append(dep, right...)
		p.DepCols[b] = dep
		for _, j := range dep {
			cbuf = contrib(j, cbuf)
			for _, k := range cbuf {
				if sp.Weight(k, j) == 0 {
					continue
				}
				counts[[2]int{k, b}]++
				total++
			}
		}
	}
	keys := make([][2]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	segs := make([]Seg, len(keys))
	colsArr := make([]int, total)
	locArr := make([]int, total)
	posArr := make([]int, total)
	wArr := make([]float64, total)
	segOf := make(map[[2]int]*Seg, len(keys))
	p.Segs = make([]*Seg, len(keys))
	off := 0
	for i, k := range keys {
		n := counts[k]
		s := &segs[i]
		*s = Seg{Index: i, From: k[0], To: k[1],
			Cols:    colsArr[off : off : off+n],
			Loc:     locArr[off : off : off+n],
			Pos:     posArr[off : off : off+n],
			Weights: wArr[off : off : off+n],
		}
		segOf[k] = s
		p.Segs[i] = s
		off += n
	}
	// Second sweep: identical order, filling the segments (appends stay
	// within the counted capacities).
	for b := range sp.Bands {
		for i, j := range p.DepCols[b] {
			cbuf = contrib(j, cbuf)
			for _, k := range cbuf {
				w := sp.Weight(k, j)
				if w == 0 {
					continue
				}
				s := segOf[[2]int{k, b}]
				s.Cols = append(s.Cols, j)
				s.Loc = append(s.Loc, j-sp.Bands[k].Lo)
				s.Pos = append(s.Pos, i)
				s.Weights = append(s.Weights, w)
			}
		}
	}

	// Rank views, again counted first: per (sender, receiver) cross-rank
	// segment counts size the peer groups exactly, and two shared arenas back
	// every group's member list. Building the groups with an ascending peer
	// loop makes them peer-sorted by construction; the members fill in
	// canonical (From, To) order, so the packed-message layout needs no sort.
	nr := sp.NRanks
	p.Ranks = make([]RankPlan, nr)
	segCnt := make([]int, nr*nr)
	nLocal := make([]int, nr)
	cross := 0
	for _, s := range p.Segs {
		fr, tr := p.Owner[s.From], p.Owner[s.To]
		if fr == tr {
			nLocal[fr]++
		} else {
			segCnt[fr*nr+tr]++
			cross++
		}
	}
	sendArena := make([]*Seg, cross)
	recvArena := make([]*Seg, cross)
	soff, roff := 0, 0
	for r := range p.Ranks {
		rp := &p.Ranks[r]
		rp.Rank = r
		if nLocal[r] > 0 {
			rp.Local = make([]*Seg, 0, nLocal[r])
		}
		nSend, nRecv := 0, 0
		for o := 0; o < nr; o++ {
			if segCnt[r*nr+o] > 0 {
				nSend++
			}
			if segCnt[o*nr+r] > 0 {
				nRecv++
			}
		}
		if nSend > 0 {
			rp.Send = make([]PeerIO, 0, nSend)
		}
		if nRecv > 0 {
			rp.Recv = make([]PeerIO, 0, nRecv)
		}
		for o := 0; o < nr; o++ {
			if n := segCnt[r*nr+o]; n > 0 {
				rp.Send = append(rp.Send, PeerIO{Peer: o, Segs: sendArena[soff : soff : soff+n]})
				soff += n
			}
			if n := segCnt[o*nr+r]; n > 0 {
				rp.Recv = append(rp.Recv, PeerIO{Peer: o, Segs: recvArena[roff : roff : roff+n]})
				roff += n
			}
		}
	}
	for _, s := range p.Segs {
		fr, tr := p.Owner[s.From], p.Owner[s.To]
		if fr == tr {
			p.Ranks[fr].Local = append(p.Ranks[fr].Local, s)
			continue
		}
		g := findGroup(p.Ranks[fr].Send, tr)
		g.Segs = append(g.Segs, s)
		g.Vals += len(s.Cols)
		g = findGroup(p.Ranks[tr].Recv, fr)
		g.Segs = append(g.Segs, s)
		g.Vals += len(s.Cols)
	}
	for r := range p.Ranks {
		rp := &p.Ranks[r]
		sort.Slice(rp.Local, func(i, j int) bool {
			if rp.Local[i].To != rp.Local[j].To {
				return rp.Local[i].To < rp.Local[j].To
			}
			return rp.Local[i].From < rp.Local[j].From
		})
	}
	if sp.Cluster != nil {
		p.relay(sp.Cluster)
	}
	return p, nil
}

// relay turns the plan into a relayed one when its ranks span two or more
// clusters: it marks every group's hops and fills every rank's Relay.
func (p *Plan) relay(cluster []int) {
	nr := p.NRanks
	// agg[r] is the lowest rank of r's cluster; pos[r] is an aggregator's
	// index among the aggregators, or a member's among its cluster's other
	// members, whose number size[agg] counts.
	ints := make([]int, 3*nr)
	agg, pos, size := ints[:nr], ints[nr:2*nr], ints[2*nr:]
	var aggs []int
	for r := range agg {
		agg[r] = r
		for _, a := range aggs {
			if cluster[a] == cluster[r] {
				agg[r] = a
				break
			}
		}
		if a := agg[r]; a == r {
			pos[r], aggs = len(aggs), append(aggs, r)
		} else {
			pos[r], size[a] = size[a], size[a]+1
		}
	}
	nc := len(aggs)
	if nc < 2 {
		return
	}

	// An aggregator's links sit at base[a], to its members then to the other
	// aggregators; a member's one link at base[m].
	relays, base := make([]Relay, nr), make([]int, nr+1)
	for r := range relays {
		p.Ranks[r].Relay, relays[r].Agg = &relays[r], agg[r]
		base[r+1] = base[r] + 1
		if agg[r] == r {
			base[r+1] = base[r] + size[r] + nc - 1
		}
	}
	links := make([]Link, base[nr])
	local := func(a, m int) int { return base[a] + pos[m] }
	remote := func(a, b int) int {
		if pos[b] > pos[a] {
			return base[a] + size[a] + pos[b] - 1
		}
		return base[a] + size[a] + pos[b]
	}
	for r, a := range agg {
		if a != r {
			links[base[r]].Peer, links[local(a, r)].Peer = a, r
			relays[r].Local = links[base[r]:base[r+1]]
			continue
		}
		relays[r].Local, relays[r].Remote = links[base[r]:base[r]+size[r]], links[base[r]+size[r]:base[r+1]]
		for _, b := range aggs {
			if b != r {
				links[remote(r, b)].Peer = b
			}
		}
	}

	// sweep walks the groups in (origin, dst) order and gives each relayed
	// one a staging slot at every rank on its route and a hop on every link
	// it crosses. A counting sweep sizes the hop lists and the slots, a
	// second one fills them.
	cnt, nslot := make([]int, 2*len(links)), make([]int, nr)
	nhops, nslots := 0, 0
	sweep := func(fill bool) {
		clear(nslot)
		slot := func(r, vals int) int {
			if fill {
				relays[r].Slots[nslot[r]] = vals
			} else {
				nslots++
			}
			nslot[r]++
			return nslot[r] - 1
		}
		add := func(li int, in bool, o, d, s int) {
			h := Hop{int32(o), int32(d), int32(s)}
			list, k := &links[li].Out, 2*li+1
			if in {
				list, k = &links[li].In, 2*li
			}
			if fill {
				*list = append(*list, h)
			} else {
				cnt[k]++
				nhops++
			}
		}
		for o := range p.Ranks {
			for gi := range p.Ranks[o].Send {
				g := &p.Ranks[o].Send[gi]
				d, ao, ad := g.Peer, agg[o], agg[g.Peer]
				rg := findGroup(p.Ranks[d].Recv, o)
				g.Via, rg.Via = [2]int{ao, ad}, [2]int{ao, ad}
				if ao == ad {
					continue
				}
				so := slot(ao, g.Vals)
				g.Slot = so
				if o != ao {
					g.Slot = slot(o, g.Vals)
					add(base[o], false, o, d, g.Slot)
					add(local(ao, o), true, o, d, so)
				}
				add(remote(ao, ad), false, o, d, so)
				sd := slot(ad, g.Vals)
				add(remote(ad, ao), true, o, d, sd)
				rg.Slot = sd
				if d != ad {
					rg.Slot = slot(d, g.Vals)
					add(local(ad, d), false, o, d, sd)
					add(base[d], true, o, d, rg.Slot)
				}
			}
		}
	}
	sweep(false)
	hops, slots := make([]Hop, nhops), make([]int, nslots)
	for li := range links {
		in, out := cnt[2*li], cnt[2*li+1]
		links[li].In, links[li].Out, hops = hops[:0:in], hops[in:in:in+out], hops[in+out:]
	}
	for r := range relays {
		relays[r].Slots, slots = slots[:nslot[r]:nslot[r]], slots[nslot[r]:]
	}
	sweep(true)
}

// findGroup returns the peer's group in a peer-ascending group list.
func findGroup(groups []PeerIO, peer int) *PeerIO {
	for i := range groups {
		if groups[i].Peer == peer {
			return &groups[i]
		}
	}
	panic("plan: peer group missing")
}

// MaxSendVals returns the largest packed-message value count among the
// rank's send groups; drivers size their (reused) send buffer with it.
func (p *Plan) MaxSendVals(rank int) int {
	max := 0
	for _, g := range p.Ranks[rank].Send {
		if g.Vals > max {
			max = g.Vals
		}
	}
	return max
}
