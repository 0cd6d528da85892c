package mp

import (
	"fmt"
	"slices"

	"repro/internal/plan"
)

// RelayTags are the message tags of a relayed exchange, indexed by leg:
// direct, up, WAN, down.
type RelayTags [4]int

// RecvFunc is a blocking receive; what names the message in its error.
type RecvFunc func(from, tag int, what string) (*Packet, error)

// leg indexes RelayTags and legWhat.
type leg int

const (
	legDirect leg = iota
	legUp
	legWAN
	legDown
)

var legWhat = [...]string{"boundary data", "gateway batch", "gateway exchange", "gateway delivery"}

// key appends hop h's route key on the leg.
func (l leg) key(buf []float64, h plan.Hop) []float64 {
	switch l {
	case legUp:
		return append(buf, float64(h.Dst))
	case legWAN:
		return append(buf, float64(h.Origin), float64(h.Dst))
	}
	return append(buf, float64(h.Origin))
}

// record is a staged [ver, echo, vals…] payload; fresh marks one not yet
// forwarded or taken.
type record struct {
	f     []float64
	fresh bool
}

// Relay is one rank's endpoint of the exchange over a plan, the forwarding
// step of a relayed plan (plan.Relay) next to the cluster-leader collectives
// of topo.go. A group's update, [ver, echo, vals…], travels as a direct
// message, or behind a route key up to its cluster's aggregator ([dst]),
// across the WAN ([origin, dst]) and down ([origin]), batched per next hop;
// a hop keeps only a group's freshest record, as DrainLatest does. Recv and
// Latest hand an update over in the direct layout whichever route it took.
// The caller drives the relay: Round at the top of a synchronous exchange,
// Pump at the start of an asynchronous drain. A
// reducing synchronous round sends over every link, each message closed by
// the sender's running criterion maximum, which Max then returns.
type Relay struct {
	c      *Comm
	rp     *plan.RankPlan
	rt     *plan.Relay // nil: every group goes direct
	tags   RelayTags
	recv   RecvFunc
	reduce bool
	agg    bool
	recs   []record // one per staging slot
	buf    []float64
	key    [2]float64
	// crit is the running criterion maximum of a reducing round, and the
	// global maximum once the round is over.
	crit float64
}

// NewRelay prepares the rank's relay for one run: rt is rp.Relay, or nil to
// send every group direct; recv is the blocking receive of the synchronous
// exchange; with reduce the synchronous round carries the criterion maximum.
func NewRelay(c *Comm, rp *plan.RankPlan, rt *plan.Relay, tags RelayTags, recv RecvFunc, reduce bool) *Relay {
	r := &Relay{c: c, rp: rp, rt: rt, tags: tags, recv: recv}
	if rt == nil {
		return r
	}
	r.reduce, r.agg = reduce, rt.Agg == rp.Rank
	n := 0
	for _, v := range rt.Slots {
		n += 2 + v
	}
	arena := make([]float64, n)
	r.recs = make([]record, len(rt.Slots))
	for i, v := range rt.Slots {
		r.recs[i].f, arena = arena[:2+v:2+v], arena[2+v:]
	}
	return r
}

// Send routes send group gi's update rec = [ver, echo, vals…]: a direct
// message, or a record staged for the relay.
func (r *Relay) Send(gi int, rec []float64) error {
	g := &r.rp.Send[gi]
	if r.rt == nil || !g.Relayed() {
		return r.c.SendFloats(g.Peer, r.tags[legDirect], rec)
	}
	s := &r.recs[g.Slot]
	copy(s.f, rec)
	s.fresh = true
	return nil
}

// Flush ends the iteration's sends with this rank's criterion: a member
// sends its up batch, an aggregator starts its running maximum.
func (r *Relay) Flush(crit float64) error {
	r.crit = crit
	if r.rt == nil || r.agg {
		return nil
	}
	return r.ship(legUp, r.rt.Local)
}

// Round is the blocking relay round of a synchronous exchange. Sends never
// block and every aggregator sends all of its WAN batches before it waits
// for one, so the round cannot deadlock.
func (r *Relay) Round() error { return r.forward(true) }

// Pump is the non-blocking relay step of the asynchronous exchange.
func (r *Relay) Pump() error { return r.forward(false) }

// forward runs the rank's legs of the route: an aggregator collects the up
// batches, ships its WAN batches, collects the remote aggregators' and ships
// the down batches; a member collects its down batch.
func (r *Relay) forward(block bool) error {
	switch {
	case r.rt == nil:
		return nil
	case !r.agg:
		return r.collect(legDown, r.rt.Local, block)
	}
	if err := r.collect(legUp, r.rt.Local, block); err != nil {
		return err
	}
	if err := r.ship(legWAN, r.rt.Remote); err != nil {
		return err
	}
	if err := r.collect(legWAN, r.rt.Remote, block); err != nil {
		return err
	}
	return r.ship(legDown, r.rt.Local)
}

// collect stages the leg's batches: blocking, one from each link that
// carries one this round (every link in a reducing round); polling, every
// one that has arrived.
func (r *Relay) collect(l leg, links []plan.Link, block bool) error {
	if !block {
		return r.poll(l, links)
	}
	for i := range links {
		if len(links[i].In) == 0 && !r.reduce {
			continue
		}
		pk, err := r.recv(links[i].Peer, r.tags[l], legWhat[l])
		if err != nil {
			return err
		}
		if err := r.unpack(l, pk, links[i].In); err != nil {
			return err
		}
	}
	return nil
}

// poll stages every arrived batch of the leg. A member with no relayed
// group polls nothing.
func (r *Relay) poll(l leg, links []plan.Link) error {
	src := AnySource
	if !r.agg {
		if len(links[0].In) == 0 {
			return nil
		}
		src = r.rt.Agg
	}
	for {
		pk := r.c.TryRecv(src, r.tags[l])
		if pk == nil {
			return nil
		}
		i := slices.IndexFunc(links, func(k plan.Link) bool { return k.Peer == pk.From })
		if i < 0 {
			return fmt.Errorf("mp: rank %d: unexpected %s from rank %d", r.c.rank, legWhat[l], pk.From)
		}
		if err := r.unpack(l, pk, links[i].In); err != nil {
			return err
		}
	}
}

// ship sends the fresh records of each link in one message; a link with
// nothing fresh is skipped unless the round reduces.
func (r *Relay) ship(l leg, links []plan.Link) error {
	for i := range links {
		r.buf = r.buf[:0]
		for _, h := range links[i].Out {
			if rec := &r.recs[h.Slot]; rec.fresh {
				r.buf = append(l.key(r.buf, h), rec.f...)
				rec.fresh = false
			}
		}
		if r.reduce {
			r.buf = append(r.buf, r.crit)
		}
		if len(r.buf) == 0 {
			continue
		}
		if err := r.c.SendFloats(links[i].Peer, r.tags[l], r.buf); err != nil {
			return err
		}
	}
	return nil
}

// unpack is the one walker of a batch, which it releases: the records are a
// subsequence of hops, each staged in its hop's slot unless that holds a
// newer version. A reducing round's trailing criterion folds into the
// running maximum, or on the way down is the global one.
func (r *Relay) unpack(l leg, pk *Packet, hops []plan.Hop) error {
	defer r.c.Release(pk)
	f := pk.Floats
	if r.reduce {
		if len(f) == 0 {
			return fmt.Errorf("mp: rank %d: %s from rank %d lacks a criterion", r.c.rank, legWhat[l], pk.From)
		}
		if c := f[len(f)-1]; l == legDown || c > r.crit {
			r.crit = c
		}
		f = f[:len(f)-1]
	}
	for len(f) > 0 {
		var k []float64
		for ; len(hops) > 0; hops = hops[1:] {
			if k = l.key(r.key[:0], hops[0]); len(f) >= len(k) && slices.Equal(f[:len(k)], k) {
				break
			}
		}
		if len(hops) == 0 || len(f) < len(k)+len(r.recs[hops[0].Slot].f) {
			return fmt.Errorf("mp: rank %d: malformed %s from rank %d", r.c.rank, legWhat[l], pk.From)
		}
		rec := &r.recs[hops[0].Slot]
		f = f[len(k):]
		if !rec.fresh || f[0] >= rec.f[0] {
			copy(rec.f, f)
			rec.fresh = true
		}
		f, hops = f[len(rec.f):], hops[1:]
	}
	return nil
}

// Recv returns recv group gi's update of a synchronous round: its direct
// message through the blocking receive, or the record the round delivered.
func (r *Relay) Recv(gi int) (*Packet, error) {
	g := &r.rp.Recv[gi]
	if r.rt == nil || !g.Relayed() {
		return r.recv(g.Peer, r.tags[legDirect], legWhat[legDirect])
	}
	if pk := r.take(g); pk != nil {
		return pk, nil
	}
	return nil, fmt.Errorf("mp: rank %d: relay delivered no record from rank %d", r.c.rank, g.Peer)
}

// Latest returns recv group gi's freshest arrived update, or nil.
func (r *Relay) Latest(gi int) *Packet {
	g := &r.rp.Recv[gi]
	if r.rt == nil || !g.Relayed() {
		return r.c.DrainLatest(g.Peer, r.tags[legDirect])
	}
	return r.take(g)
}

// take hands a fresh staged record over as a pooled packet.
func (r *Relay) take(g *plan.PeerIO) *Packet {
	rec := &r.recs[g.Slot]
	if !rec.fresh {
		return nil
	}
	rec.fresh = false
	pk := r.c.packet()
	pk.From, pk.Tag = g.Peer, r.tags[legDirect]
	pk.Floats = r.c.p.GetFloats(len(rec.f))
	copy(pk.Floats, rec.f)
	return pk
}

// Max returns the maximum of v over all ranks: the one the reducing round
// delivered, or, in a run with no relay route, an Allreduce.
func (r *Relay) Max(v float64) (float64, error) {
	if r.reduce {
		return r.crit, nil
	}
	return r.c.Allreduce(v, OpMax)
}
