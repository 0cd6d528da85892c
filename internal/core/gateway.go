package core

import (
	"fmt"
	"sort"

	"repro/internal/mp"
	"repro/internal/plan"
)

// Gateway message tags (user-tag space; see dist.go for the solver tags and
// the detect reservation above 1<<18).
const (
	tagGwUp   = 4 // rank → its cluster aggregator: outbound inter-cluster batch
	tagGwWan  = 5 // aggregator → aggregator: one WAN message per cluster pair
	tagGwDown = 6 // aggregator → local rank: inbound inter-cluster batch
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
// iterates), and the asynchronous policies see freshest-per-origin records.
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
// the exchange, which holds for the successive-iterate stopper only.
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

// shipInter replaces the direct WAN sends of ship(): a plain rank packs all
// of its inter-cluster groups into one up message to its aggregator; the
// aggregator stages its own records directly.
func (g *gwState) shipInter(st *rankState) error {
	g.upBuf = g.upBuf[:0]
	any := false
	for gi := range st.rp.Send {
		if !g.sendViaGw[gi] {
			continue
		}
		io := &st.rp.Send[gi]
		any = true
		if g.isAgg {
			pr := g.pairIdx[[2]int{g.self, io.Peer}]
			pr.rec.ver = float64(st.iter)
			pr.rec.echo = st.reflFor(gi)
			pr.rec.vals = st.packVals(io, pr.rec.vals[:0])
			pr.rec.fresh = true
			continue
		}
		g.upBuf = append(g.upBuf, float64(io.Peer), float64(st.iter), st.reflFor(gi))
		g.upBuf = st.packVals(io, g.upBuf)
	}
	if g.red && !g.isAgg {
		// Piggybacked reduction: the local criterion closes every up batch
		// (an empty batch still carries it, keeping every rank in the round).
		g.upBuf = append(g.upBuf, st.diff)
		return st.c.SendFloats(g.myAgg, tagGwUp, g.upBuf)
	}
	if any && !g.isAgg {
		return st.c.SendFloats(g.myAgg, tagGwUp, g.upBuf)
	}
	return nil
}

// stash copies one wire record into a staged record, keeping the freshest
// version (overwriting is safe: versions are monotone per origin over the
// FIFO routes, and the async policies want exactly freshest-per-origin).
func (rec *gwRecord) stash(ver, echo float64, vals []float64) {
	if rec.fresh && ver < rec.ver {
		return
	}
	rec.ver, rec.echo = ver, echo
	copy(rec.vals, vals)
	rec.fresh = true
}

// parseUp merges one rank's up batch into the aggregator's staged records.
// In red mode the trailing criterion folds into the cluster maximum.
func (g *gwState) parseUp(pk *mp.Packet) error {
	f := pk.Floats
	if g.red {
		if len(f) == 0 {
			return fmt.Errorf("core: gateway: up batch from rank %d lacks a criterion", pk.From)
		}
		if c := f[len(f)-1]; c > g.critAcc {
			g.critAcc = c
		}
		f = f[:len(f)-1]
	}
	for len(f) > 0 {
		dst := int(f[0])
		pr := g.pairIdx[[2]int{pk.From, dst}]
		if pr == nil || len(f) < 3+pr.nvals {
			return fmt.Errorf("core: gateway: bad up record %d->%d", pk.From, dst)
		}
		pr.rec.stash(f[1], f[2], f[3:3+pr.nvals])
		f = f[3+pr.nvals:]
	}
	return nil
}

// flushWan ships the staged fresh records to each remote cluster, one WAN
// message per cluster per call (skipping clusters with nothing fresh). In
// red mode every batch closes with the cluster's criterion maximum and is
// sent even when no records are fresh.
func (g *gwState) flushWan(st *rankState) error {
	for i := range g.wanOut {
		w := &g.wanOut[i]
		g.packBuf = g.packBuf[:0]
		for _, pr := range w.pairs {
			if !pr.rec.fresh {
				continue
			}
			g.packBuf = append(g.packBuf, float64(pr.origin), float64(pr.dst), pr.rec.ver, pr.rec.echo)
			g.packBuf = append(g.packBuf, pr.rec.vals...)
			pr.rec.fresh = false
		}
		if g.red {
			g.packBuf = append(g.packBuf, g.critAcc)
		}
		if len(g.packBuf) > 0 {
			if err := st.c.SendFloats(w.agg, tagGwWan, g.packBuf); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseWan unpacks one remote cluster's WAN batch: records addressed to
// this aggregator go straight to its inbox, the rest are staged for the
// down fan-out. In red mode the trailing cluster maximum folds into the
// running global maximum.
func (g *gwState) parseWan(pk *mp.Packet) error {
	f := pk.Floats
	if g.red {
		if len(f) == 0 {
			return fmt.Errorf("core: gateway: WAN batch from rank %d lacks a criterion", pk.From)
		}
		if c := f[len(f)-1]; c > g.critAcc {
			g.critAcc = c
		}
		f = f[:len(f)-1]
	}
	for len(f) > 0 {
		origin, dst := int(f[0]), int(f[1])
		pr := g.pairIdx[[2]int{origin, dst}]
		if pr == nil || len(f) < 4+pr.nvals {
			return fmt.Errorf("core: gateway: bad WAN record %d->%d", origin, dst)
		}
		if dst == g.self {
			// The pair exists, so origin is one of this rank's WAN contributors.
			g.inbox[g.recvOf[origin]].stash(f[2], f[3], f[4:4+pr.nvals])
		} else {
			pr.rec.stash(f[2], f[3], f[4:4+pr.nvals])
		}
		f = f[4+pr.nvals:]
	}
	return nil
}

// flushDowns forwards the staged fresh inbound records to their local
// destinations, one LAN message per rank per call. In red mode every batch
// closes with the global criterion maximum and is sent even when empty.
func (g *gwState) flushDowns(st *rankState) error {
	for i := range g.downs {
		d := &g.downs[i]
		g.packBuf = g.packBuf[:0]
		for _, pr := range d.pairs {
			if !pr.rec.fresh {
				continue
			}
			g.packBuf = append(g.packBuf, float64(pr.origin), pr.rec.ver, pr.rec.echo)
			g.packBuf = append(g.packBuf, pr.rec.vals...)
			pr.rec.fresh = false
		}
		if g.red {
			g.packBuf = append(g.packBuf, g.critAcc)
		}
		if len(g.packBuf) > 0 {
			if err := st.c.SendFloats(d.dst, tagGwDown, g.packBuf); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseDown merges an aggregator's down batch into the receiver's inbox.
// In red mode the trailing float is the round's global criterion maximum.
func (g *gwState) parseDown(st *rankState, pk *mp.Packet) error {
	f := pk.Floats
	if g.red {
		if len(f) == 0 {
			return fmt.Errorf("core: gateway: down batch from rank %d lacks a criterion", pk.From)
		}
		g.globalCrit = f[len(f)-1]
		f = f[:len(f)-1]
	}
	for len(f) > 0 {
		origin := int(f[0])
		if uint(origin) >= uint(len(g.recvOf)) || g.recvOf[origin] < 0 {
			return fmt.Errorf("core: gateway: down record from unknown contributor %d", origin)
		}
		gi := g.recvOf[origin]
		nv := st.rp.Recv[gi].Vals
		if len(f) < 3+nv {
			return fmt.Errorf("core: gateway: short down record from contributor %d", origin)
		}
		g.inbox[gi].stash(f[1], f[2], f[3:3+nv])
		f = f[3+nv:]
	}
	return nil
}

// take pops the staged inbox record for a recv group (nil, false when no
// fresh record is staged).
func (g *gwState) take(gi int) (*gwRecord, bool) {
	ib := &g.inbox[gi]
	if !ib.fresh {
		return nil, false
	}
	ib.fresh = false
	return ib, true
}

// syncRound is the aggregator's per-iteration forwarding round in the
// synchronous policy: receive one up batch from every local sender, ship
// one WAN message per remote cluster, receive one WAN message from every
// inbound cluster, fan the records out. Deadlock-free because simulator
// sends never block and every aggregator completes its WAN sends before its
// WAN receives.
func (g *gwState) syncRound(st *rankState) error {
	if !g.isAgg {
		return nil
	}
	g.critAcc = st.diff
	for _, r := range g.upSenders {
		pk, err := st.recvCritical(r, tagGwUp, "gateway batch")
		if err != nil {
			return err
		}
		err = g.parseUp(pk)
		st.c.Release(pk)
		if err != nil {
			return err
		}
	}
	if err := g.flushWan(st); err != nil {
		return err
	}
	for _, a := range g.wanIn {
		pk, err := st.recvCritical(a, tagGwWan, "gateway exchange")
		if err != nil {
			return err
		}
		err = g.parseWan(pk)
		st.c.Release(pk)
		if err != nil {
			return err
		}
	}
	// After the WAN sweep critAcc is the global maximum (cluster maxima in
	// ride every inbound batch); publish it locally and in the down batches.
	g.globalCrit = g.critAcc
	return g.flushDowns(st)
}

// recvDownSync blocks (synchronous policy) for the single down batch a
// non-aggregator rank receives per iteration (only ranks with inter-cluster
// contributors receive one outside red mode).
func (g *gwState) recvDownSync(st *rankState) error {
	if g.isAgg || (!g.hasInterRecv && !g.red) {
		return nil
	}
	pk, err := st.recvCritical(g.myAgg, tagGwDown, "gateway delivery")
	if err != nil {
		return err
	}
	err = g.parseDown(st, pk)
	st.c.Release(pk)
	return err
}

// pump is the non-blocking gateway service used by the asynchronous
// policies: an aggregator drains pending up and WAN batches and forwards
// whatever became fresh; a plain rank refreshes its inbox from pending down
// batches. Called once per drain and inside bounded-staleness poll loops so
// an aggregator keeps forwarding while it waits.
func (g *gwState) pump(st *rankState) error {
	if g.isAgg {
		for {
			pk := st.c.TryRecv(mp.AnySource, tagGwUp)
			if pk == nil {
				break
			}
			err := g.parseUp(pk)
			st.c.Release(pk)
			if err != nil {
				return err
			}
		}
		if err := g.flushWan(st); err != nil {
			return err
		}
		for {
			pk := st.c.TryRecv(mp.AnySource, tagGwWan)
			if pk == nil {
				break
			}
			err := g.parseWan(pk)
			st.c.Release(pk)
			if err != nil {
				return err
			}
		}
		return g.flushDowns(st)
	}
	if !g.hasInterRecv {
		return nil
	}
	for {
		pk := st.c.TryRecv(g.myAgg, tagGwDown)
		if pk == nil {
			break
		}
		err := g.parseDown(st, pk)
		st.c.Release(pk)
		if err != nil {
			return err
		}
	}
	return nil
}
