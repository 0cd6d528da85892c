package core

// The gateway tables as the solver built them before the relay moved into
// plan and mp, kept verbatim as the reference TestRelayTablesMatchGatewayReference
// holds plan.Relay to. Only the construction is kept: the wire protocol it
// fed is mp.Relay now.

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/vgrid"
)

// gwRecord is one (origin → destination) coalesced update staged at an
// aggregator or in a receiver's inbox: the direct message's header and
// packed values, kept per origin so every exchange policy sees exactly the
// semantics of the direct plan.
type gwRecord struct {
	ver, echo float64
	vals      []float64
	// fresh marks a record that has not yet been forwarded (aggregator) or
	// applied (receiver inbox).
	fresh bool
}

// gwPair is one inter-cluster (origin rank, destination rank) group routed
// through an aggregator, with its staged record.
type gwPair struct {
	origin, dst int
	nvals       int
	rec         gwRecord
}

// gwWanOut is the batch an aggregator ships to one remote cluster: all
// staged (origin, dst) records whose destination lives there, packed into a
// single WAN message per iteration.
type gwWanOut struct {
	agg   int // the remote cluster's aggregator rank
	pairs []*gwPair
}

// gwDown is the batch an aggregator forwards to one rank of its own cluster.
type gwDown struct {
	dst   int
	pairs []*gwPair
}

// gwState is a rank's gateway-aggregation state. Each cluster elects its
// lowest rank as aggregator; every other rank batches all of its
// inter-cluster send groups into one tagGwUp message per iteration, the
// aggregator merges the batches and ships one tagGwWan message per remote
// cluster, and the receiving aggregator fans the records out over the LAN
// (tagGwDown). The per-origin [version, echo] headers ride along, so the
// exchange policies keep their exact semantics: a synchronous round applies
// the same values in the same order as the direct plan (byte-identical
// iterates), and the asynchronous policy sees freshest-per-origin records.
//
// Wire formats (all float64): up = repeat [dst, ver, echo, vals...];
// WAN = repeat [origin, dst, ver, echo, vals...]; down = repeat
// [origin, ver, echo, vals...]. Value counts are static from the plan, so
// no lengths are transmitted.
//
// In the synchronous policy the convergence reduction rides the same round
// (red): every rank appends its local criterion to its up batch, each WAN
// batch carries the cluster maximum, and each down batch carries the global
// maximum — so one WAN round per iteration replaces both the boundary
// exchange and the max-Allreduce. Max is order-independent, so the global
// value (and hence the stop decision) is bitwise identical to the direct
// plan's Allreduce. The piggyback requires the criterion to be known before
// the exchange, which holds for the successive-iterate difference.
type gwState struct {
	clusterOf []int
	self      int
	myAgg     int
	isAgg     bool
	// red enables the piggybacked convergence reduction: in this mode every
	// rank sends an up and receives a down each round (even with no boundary
	// groups crossing clusters) and every aggregator pair exchanges a WAN
	// message, so the round doubles as the synchronization barrier.
	red bool
	// globalCrit is the round's global criterion maximum delivered by the
	// piggybacked reduction.
	globalCrit float64
	// critAcc accumulates an aggregator's running cluster maximum.
	critAcc float64

	// sendViaGw / recvViaGw mark, per send/recv group index of the rank's
	// plan, the groups whose peer lives in another cluster.
	sendViaGw []bool
	recvViaGw []bool
	// hasInterRecv is true when any recv group routes through the gateway.
	hasInterRecv bool
	// inbox stages the freshest record per recv group (gateway groups only);
	// recvOf maps an origin rank to its gateway recv group (−1: none).
	inbox  []gwRecord
	recvOf []int

	upBuf   []float64
	packBuf []float64

	// Aggregator-only routing tables, all in deterministic ascending order.
	pairIdx   map[[2]int]*gwPair
	upSenders []int      // local ranks with outbound inter-cluster groups
	wanOut    []gwWanOut // one per remote destination cluster
	wanIn     []int      // remote aggregators that send to this cluster
	downs     []gwDown   // one per local rank with inbound groups
}

// newGwState builds the gateway state for a rank, or returns nil when the
// platform declares fewer than two clusters over the communicator's hosts
// (the direct plan is already optimal then). red enables the piggybacked
// convergence reduction (synchronous policy with a pre-exchange criterion).
func newGwState(cp *plan.Plan, rank int, clusterOf []int, red bool) *gwState {
	if clusterOf == nil {
		return nil
	}
	agg := map[int]int{} // cluster index → lowest rank
	for r := 0; r < cp.NRanks; r++ {
		if _, ok := agg[clusterOf[r]]; !ok {
			agg[clusterOf[r]] = r
		}
	}
	if len(agg) < 2 {
		return nil
	}
	g := &gwState{clusterOf: clusterOf, self: rank, myAgg: agg[clusterOf[rank]], red: red}
	g.isAgg = g.myAgg == rank

	rp := &cp.Ranks[rank]
	g.sendViaGw = make([]bool, len(rp.Send))
	for gi, io := range rp.Send {
		g.sendViaGw[gi] = clusterOf[io.Peer] != clusterOf[rank]
	}
	g.recvViaGw = make([]bool, len(rp.Recv))
	g.inbox = make([]gwRecord, len(rp.Recv))
	inVals := 0
	for _, io := range rp.Recv {
		if clusterOf[io.Peer] != clusterOf[rank] {
			inVals += io.Vals
		}
	}
	inArena := make([]float64, inVals)
	g.recvOf = make([]int, cp.NRanks)
	for r := range g.recvOf {
		g.recvOf[r] = -1
	}
	for gi, io := range rp.Recv {
		if clusterOf[io.Peer] != clusterOf[rank] {
			g.recvViaGw[gi] = true
			g.recvOf[io.Peer] = gi
			g.hasInterRecv = true
			g.inbox[gi].vals = inArena[:io.Vals:io.Vals]
			inArena = inArena[io.Vals:]
		}
	}
	if !g.isAgg {
		return g
	}

	// Aggregator routing tables: enumerate every inter-cluster (origin, dst)
	// group touching this cluster, in (origin, dst) ascending order. A count
	// pass sizes the pair slab and its staging-value arena exactly.
	g.pairIdx = map[[2]int]*gwPair{}
	myC := clusterOf[rank]
	nPairs, nVals := 0, 0
	for r := 0; r < cp.NRanks; r++ {
		for _, io := range cp.Ranks[r].Send {
			oc, dc := clusterOf[r], clusterOf[io.Peer]
			if oc != dc && (oc == myC || dc == myC) {
				nPairs++
				nVals += io.Vals
			}
		}
	}
	pairArena := make([]gwPair, 0, nPairs)
	valsArena := make([]float64, nVals)
	upSet := map[int]bool{}
	wanOutM := map[int]*gwWanOut{}
	wanInSet := map[int]bool{}
	downM := map[int]*gwDown{}
	for r := 0; r < cp.NRanks; r++ {
		for _, io := range cp.Ranks[r].Send {
			oc, dc := clusterOf[r], clusterOf[io.Peer]
			if oc == dc || (oc != myC && dc != myC) {
				continue
			}
			pairArena = append(pairArena, gwPair{origin: r, dst: io.Peer, nvals: io.Vals})
			pr := &pairArena[len(pairArena)-1]
			pr.rec.vals = valsArena[:io.Vals:io.Vals]
			valsArena = valsArena[io.Vals:]
			g.pairIdx[[2]int{r, io.Peer}] = pr
			if oc == myC {
				if r != rank {
					upSet[r] = true
				}
				w := wanOutM[dc]
				if w == nil {
					w = &gwWanOut{agg: agg[dc]}
					wanOutM[dc] = w
				}
				w.pairs = append(w.pairs, pr)
			} else {
				wanInSet[agg[oc]] = true
				if io.Peer != rank {
					dw := downM[io.Peer]
					if dw == nil {
						dw = &gwDown{dst: io.Peer}
						downM[io.Peer] = dw
					}
					dw.pairs = append(dw.pairs, pr)
				}
			}
		}
	}
	if red {
		// The reduction needs a contribution from every rank and a WAN
		// crossing between every aggregator pair, so complete the tables with
		// empty batches where no boundary data flows.
		for r := 0; r < cp.NRanks; r++ {
			if clusterOf[r] == myC && r != rank {
				upSet[r] = true
				if downM[r] == nil {
					downM[r] = &gwDown{dst: r}
				}
			}
		}
		for c, a := range agg {
			if c == myC {
				continue
			}
			wanInSet[a] = true
			if wanOutM[c] == nil {
				wanOutM[c] = &gwWanOut{agg: a}
			}
		}
	}
	g.upSenders = sortedIntKeys(upSet)
	g.wanIn = sortedIntKeys(wanInSet)
	for _, w := range wanOutM {
		g.wanOut = append(g.wanOut, *w)
	}
	sort.Slice(g.wanOut, func(i, j int) bool { return g.wanOut[i].agg < g.wanOut[j].agg })
	for _, d := range downM {
		g.downs = append(g.downs, *d)
	}
	sort.Slice(g.downs, func(i, j int) bool { return g.downs[i].dst < g.downs[j].dst })
	return g
}

func sortedIntKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// hopKeys lists hops as (origin, dst) pairs.
func hopKeys(hs []plan.Hop) [][2]int {
	out := make([][2]int, len(hs))
	for i, h := range hs {
		out[i] = [2]int{int(h.Origin), int(h.Dst)}
	}
	return out
}

// pairKeys lists reference pairs as (origin, dst) pairs.
func pairKeys(ps []*gwPair) [][2]int {
	out := make([][2]int, len(ps))
	for i, p := range ps {
		out[i] = [2]int{p.origin, p.dst}
	}
	return out
}

// relayMismatch compares rank r's relay tables with the reference's, for the
// plain and the reducing round: "" when they agree.
func relayMismatch(cp *plan.Plan, clusterOf []int, r int) string {
	rp := &cp.Ranks[r]
	rl := rp.Relay
	for _, red := range []bool{false, true} {
		g := newGwState(cp, r, clusterOf, red)
		if g == nil || rl == nil {
			if g != nil || rl != nil {
				return fmt.Sprintf("relayed: reference %v, plan %v", g != nil, rl != nil)
			}
			return ""
		}
		for gi := range rp.Send {
			if g.sendViaGw[gi] != rp.Send[gi].Relayed() {
				return fmt.Sprintf("send group %d: relayed %v, want %v", gi, rp.Send[gi].Relayed(), g.sendViaGw[gi])
			}
		}
		for gi := range rp.Recv {
			if g.recvViaGw[gi] != rp.Recv[gi].Relayed() {
				return fmt.Sprintf("recv group %d: relayed %v, want %v", gi, rp.Recv[gi].Relayed(), g.recvViaGw[gi])
			}
		}
		if rl.Agg != g.myAgg {
			return fmt.Sprintf("aggregator %d, want %d", rl.Agg, g.myAgg)
		}
		// Every hop's slot holds its group's values; a record keeps its slot
		// from arrival to departure, and a relayed group of this rank's own
		// uses the slot of its hop.
		slot := map[[2]int]int{}
		var links []plan.Link
		links = append(append(links, rl.Local...), rl.Remote...)
		for _, l := range links {
			for _, h := range slices.Concat(l.In, l.Out) {
				k, hs := [2]int{int(h.Origin), int(h.Dst)}, int(h.Slot)
				if s, ok := slot[k]; ok && s != hs {
					return fmt.Sprintf("group %v staged in slots %d and %d", k, s, h.Slot)
				}
				slot[k] = hs
				if g.isAgg && rl.Slots[hs] != g.pairIdx[k].nvals {
					return fmt.Sprintf("group %v: slot of %d values, want %d", k, rl.Slots[hs], g.pairIdx[k].nvals)
				}
			}
		}
		groupSlot := func(io plan.PeerIO, k [2]int) string {
			if s, ok := slot[k]; io.Relayed() && (!ok || s != io.Slot || rl.Slots[s] != io.Vals) {
				return fmt.Sprintf("group %v: slot %d, its hops name %d (%v)", k, io.Slot, s, ok)
			}
			return ""
		}
		for _, io := range rp.Send {
			if msg := groupSlot(io, [2]int{r, io.Peer}); msg != "" {
				return msg
			}
		}
		for _, io := range rp.Recv {
			if msg := groupSlot(io, [2]int{io.Peer, r}); msg != "" {
				return msg
			}
		}
		if !g.isAgg {
			var in, out [][2]int
			for _, io := range rp.Recv {
				if io.Relayed() {
					in = append(in, [2]int{io.Peer, r})
				}
			}
			for _, io := range rp.Send {
				if io.Relayed() {
					out = append(out, [2]int{r, io.Peer})
				}
			}
			l := rl.Local[0]
			if len(rl.Local) != 1 || len(rl.Remote) != 0 || l.Peer != g.myAgg ||
				fmt.Sprint(hopKeys(l.In)) != fmt.Sprint(in) || fmt.Sprint(hopKeys(l.Out)) != fmt.Sprint(out) {
				return fmt.Sprintf("member link %+v, want peer %d in %v out %v", rl.Local, g.myAgg, in, out)
			}
			continue
		}
		// The reference lists the edges that carry a message: with red every
		// link, otherwise the links with hops in that direction.
		carried := func(ls []plan.Link, in bool) (peers []int, hops []string) {
			for _, l := range ls {
				hs := l.Out
				if in {
					hs = l.In
				}
				if red || len(hs) > 0 {
					peers = append(peers, l.Peer)
					hops = append(hops, fmt.Sprint(hopKeys(hs)))
				}
			}
			return peers, hops
		}
		ups, upHops := carried(rl.Local, true)
		wanIn, wanInHops := carried(rl.Remote, true)
		wanOut, wanOutHops := carried(rl.Remote, false)
		downs, downHops := carried(rl.Local, false)
		var refOut, refDown []int
		var refOutHops, refDownHops, refUpHops, refInHops []string
		for _, w := range g.wanOut {
			refOut = append(refOut, w.agg)
			refOutHops = append(refOutHops, fmt.Sprint(pairKeys(w.pairs)))
		}
		for _, d := range g.downs {
			refDown = append(refDown, d.dst)
			refDownHops = append(refDownHops, fmt.Sprint(pairKeys(d.pairs)))
		}
		keys := make([][2]int, 0, len(g.pairIdx))
		for k := range g.pairIdx {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
		})
		for _, m := range g.upSenders {
			var ks [][2]int
			for _, k := range keys {
				if k[0] == m {
					ks = append(ks, k)
				}
			}
			refUpHops = append(refUpHops, fmt.Sprint(ks))
		}
		for _, a := range g.wanIn {
			var ks [][2]int
			for _, k := range keys {
				if clusterOf[k[0]] == clusterOf[a] && clusterOf[k[1]] == clusterOf[r] {
					ks = append(ks, k)
				}
			}
			refInHops = append(refInHops, fmt.Sprint(ks))
		}
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"up senders", ups, g.upSenders}, {"up hops", upHops, refUpHops},
			{"WAN senders", wanIn, g.wanIn}, {"WAN in hops", wanInHops, refInHops},
			{"WAN receivers", wanOut, refOut}, {"WAN out hops", wanOutHops, refOutHops},
			{"down receivers", downs, refDown}, {"down hops", downHops, refDownHops},
		} {
			if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
				return fmt.Sprintf("red=%v %s: %v, want %v", red, c.what, c.got, c.want)
			}
		}
	}
	return ""
}

// TestRelayTablesMatchGatewayReference holds the plan's relay tables to the
// gateway tables the solver used to build per rank and per run: on cluster3
// with 10 ranks, a synthetic three-cluster grid, two bands per rank on
// cluster3, and clusters that interleave the ranks.
func TestRelayTablesMatchGatewayReference(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 720, Band: 150, PerRow: 8, Seed: 31})
	clustersOf := func(hosts []*vgrid.Host) []int {
		out := make([]int, len(hosts))
		for r, h := range hosts {
			out[r] = h.ClusterIndex()
		}
		return out
	}
	interleaved := make([]int, 9)
	for r := range interleaved {
		interleaved[r] = (r * 7) % 3
	}
	for _, tc := range []struct {
		name    string
		cluster []int
		bpp     int
	}{
		{"cluster3", clustersOf(cluster.Cluster3(-1).Hosts[:10]), 1},
		{"synthetic", clustersOf(cluster.Synthetic(12, 3, 0, 1).Hosts), 1},
		{"cluster3-bands2", clustersOf(cluster.Cluster3(-1).Hosts[:10]), 2},
		{"interleaved", interleaved, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDecomposition(a.Rows, len(tc.cluster)*tc.bpp, 4, WeightOwner)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := buildCommPlan(a, d, tc.cluster)
			if err != nil {
				t.Fatal(err)
			}
			relayed := 0
			for r := range cp.Ranks {
				if msg := relayMismatch(cp, tc.cluster, r); msg != "" {
					t.Fatalf("rank %d: %s", r, msg)
				}
				for _, io := range cp.Ranks[r].Send {
					if io.Relayed() {
						relayed++
					}
				}
			}
			if relayed == 0 {
				t.Fatal("no group crosses clusters")
			}
		})
	}
}
