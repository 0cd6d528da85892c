package core

import (
	"fmt"
	"math"

	"repro/internal/adapt"
	"repro/internal/detect"
	"repro/internal/mp"
	"repro/internal/obs"
)

// outcome is an exchange policy's verdict for the current iteration.
type outcome int

const (
	outContinue  outcome = iota // keep iterating
	outConverged                // global stop decided (detection or Allreduce)
	outAborted                  // another rank hit the iteration cap
)

// exchangePolicy is the pluggable communication strategy of the engine loop:
// how a rank obtains its neighbours' updates and how the global stopping
// decision is reached. The three implementations reproduce the paper's
// synchronous and asynchronous variants plus the bounded-staleness middle
// ground.
type exchangePolicy interface {
	exchange(st *rankState) (outcome, error)
}

// newExchangePolicy returns the rank's policy; an asynchronous one carries
// the rank's node of the detection tree.
func newExchangePolicy(o Options, c *mp.Comm) exchangePolicy {
	if !o.Async {
		return syncPolicy{}
	}
	ap := asyncPolicy{det: detect.NewDecentralized(c)}
	if o.MaxStale > 0 {
		return &boundedStalePolicy{asyncPolicy: ap, maxStale: o.MaxStale}
	}
	return &ap
}

// syncPolicy: the relay round, a blocking receive from every contributor
// group in peer order, then the max over all ranks of the successive-iterate
// difference — the classical synchronous multisplitting round. A relayed
// group is applied at the same position of the peer-ascending loop as a
// direct one, so the iterates are byte-identical whichever route the plan
// gives it; when the relay round carried the difference (max is
// order-independent, so it is bitwise the Allreduce's) no second WAN round
// is needed.
type syncPolicy struct{}

func (syncPolicy) exchange(st *rankState) (outcome, error) {
	if err := st.relay.Round(); err != nil {
		return 0, err
	}
	for gi := range st.rp.Recv {
		pk, err := st.relay.Recv(gi)
		if err != nil {
			return 0, err
		}
		st.applyGroup(gi, pk.Floats[0], pk.Floats[1], pk.Floats[msgHdr:])
		st.c.Release(pk)
	}
	st.c.Charge()
	if sc := st.ctx.Observe(); sc != nil {
		sc.Sample("diff", st.c.Now(), st.diff)
	}
	global, err := st.relay.Max(st.diff)
	if err != nil {
		return 0, err
	}
	if global <= st.o.Tol {
		return outConverged, nil
	}
	return outContinue, nil
}

// asyncPolicy: drain the freshest pending update per contributor without
// blocking, then feed local stability evidence to the termination detector.
// Evidence only counts on complete rounds (fresh data from every contributor
// since the last round) and only once every contributor has echoed back data
// at least as new as the start of the current stable streak — the causal
// round-trip criterion that keeps detection sound under message pipelining.
type asyncPolicy struct {
	det *detect.Decentralized
	// lastRefresh is the virtual time of the last detector Refresh in
	// fault-tolerant mode. The cadence is deadRankTimeout of virtual time —
	// far longer than any healthy verification round, so refreshes only ever
	// abandon rounds that are genuinely stuck on a lost message. Epoch
	// tagging makes the abandonment safe (stale responses are discarded),
	// so the cadence trades only detection latency.
	lastRefresh float64
}

func (ap *asyncPolicy) exchange(st *rankState) (outcome, error) {
	if err := ap.drain(st); err != nil {
		return 0, err
	}
	return ap.finish(st)
}

// drain pumps the relay first (an aggregator forwards whatever arrived since
// its last iteration, a member stages the freshest record per origin), then
// adopts the freshest update of every group.
func (ap *asyncPolicy) drain(st *rankState) error {
	if err := st.relay.Pump(); err != nil {
		return err
	}
	for gi := range st.rp.Recv {
		if !st.adopt(gi) {
			st.staleCount[gi]++
		}
	}
	return nil
}

// adopt applies group gi's freshest arrived update, if any, as fresh data.
func (st *rankState) adopt(gi int) bool {
	pk := st.relay.Latest(gi)
	if pk == nil {
		return false
	}
	st.applyGroup(gi, pk.Floats[0], pk.Floats[1], pk.Floats[msgHdr:])
	st.c.Release(pk)
	st.freshSeen[gi] = true
	st.staleCount[gi] = 0
	return true
}

func (ap *asyncPolicy) finish(st *rankState) (outcome, error) {
	st.c.Charge()
	roundComplete := true
	for _, f := range st.freshSeen {
		if !f {
			roundComplete = false
			break
		}
	}
	if sc := st.ctx.Observe(); sc != nil {
		sc.Sample("diff", st.c.Now(), st.diff)
	}
	switch {
	case st.diff > st.o.Tol:
		st.stableRuns = 0
		st.stableStart = st.iter
	case roundComplete:
		st.stableRuns++
	}
	if roundComplete {
		for i := range st.freshSeen {
			st.freshSeen[i] = false
		}
	}
	localOK := st.stableRuns >= smoothRuns
	if localOK {
		for gi := range st.rp.Recv {
			if st.echoFrom[gi] < float64(st.stableStart) {
				localOK = false
				break
			}
		}
	}
	if st.o.FaultTolerant {
		if now := st.c.Now(); now-ap.lastRefresh >= deadRankTimeout {
			ap.lastRefresh = now
			if sc := st.ctx.Observe(); sc != nil {
				sc.Span(obs.Span{Cat: obs.CatDetect, Name: "detector-refresh",
					Start: now, End: now, Iter: st.iter})
				sc.Count("detector_refresh", 1)
			}
			ap.det.Refresh()
		}
	}
	stopNow, err := ap.det.Step(localOK)
	if err != nil {
		return 0, err
	}
	if stopNow {
		return outConverged, nil
	}
	if pk := st.c.TryRecv(mp.AnySource, tagAbort); pk != nil {
		st.c.Release(pk)
		return outAborted, nil
	}
	return outContinue, nil
}

// boundedStalePolicy is asyncPolicy with a partial-synchronism guarantee: if
// any contributor has produced no fresh data for MaxStale consecutive
// iterations, the rank polls (virtual-time sleeps) until an update arrives,
// bounding how far ranks can drift apart. With Options.Adapt the single
// configured bound becomes a live per-group bound, tuned every AdaptInterval
// iterations by link class (adapt.TuneStale): a WAN contributor that keeps
// forcing waits earns more slack, a contributor that always delivers
// tightens back toward the base. The tuning reads only this rank's
// deterministic staleness counters, so no extra messages are needed and the
// virtual schedule stays byte-identical for any worker or lane count.
type boundedStalePolicy struct {
	asyncPolicy
	maxStale int
	// Adaptive per-group state (nil without Options.Adapt): the live bounds
	// and the forced-wait and fresh-delivery counters of the current tuning
	// window. A group's link class is whether the plan relays it.
	bounds []int
	forced []int
	fresh  []int
}

func (bp *boundedStalePolicy) exchange(st *rankState) (outcome, error) {
	if err := bp.drain(st); err != nil {
		return 0, err
	}
	if st.o.Adapt {
		bp.tuneBounds(st)
	}
	out, err := bp.waitForStale(st)
	if err != nil || out != outContinue {
		return out, err
	}
	return bp.finish(st)
}

// bound returns the staleness limit for one receive group: the live tuned
// bound when adaptive, the configured MaxStale otherwise.
func (bp *boundedStalePolicy) bound(gi int) int {
	if bp.bounds != nil {
		return bp.bounds[gi]
	}
	return bp.maxStale
}

// tuneBounds accumulates this iteration's per-group evidence and, at every
// AdaptInterval boundary, retunes the live bounds through adapt.TuneStale.
func (bp *boundedStalePolicy) tuneBounds(st *rankState) {
	if bp.bounds == nil {
		ng := len(st.rp.Recv)
		bp.bounds = make([]int, ng)
		bp.forced = make([]int, ng)
		bp.fresh = make([]int, ng)
		for gi := range bp.bounds {
			bp.bounds[gi] = bp.maxStale
		}
	}
	for gi := range st.rp.Recv {
		if st.staleCount[gi] == 0 {
			bp.fresh[gi]++
		}
	}
	if st.iter%st.o.AdaptInterval != 0 {
		return
	}
	for gi := range bp.bounds {
		nb := adapt.TuneStale(bp.bounds[gi], bp.maxStale, bp.forced[gi], bp.fresh[gi], st.rp.Recv[gi].Relayed())
		if nb != bp.bounds[gi] {
			if sc := st.ctx.Observe(); sc != nil {
				sc.Count("stale_retune", 1)
			}
			bp.bounds[gi] = nb
		}
		bp.forced[gi], bp.fresh[gi] = 0, 0
	}
}

// waitForStale blocks (in virtual time) on every over-stale contributor.
// While polling it keeps servicing the detector and the abort channel so a
// stop decided elsewhere still terminates this rank. In fault-tolerant mode
// the wait is capped at the dead-rank budget (sendRetries × deadRankTimeout)
// so a crashed contributor produces a diagnostic instead of a livelock.
func (bp *boundedStalePolicy) waitForStale(st *rankState) (outcome, error) {
	const pollInterval = 1e-4
	maxWait := math.Inf(1)
	if st.o.FaultTolerant {
		maxWait = sendRetries * deadRankTimeout
	}
	for gi := range st.rp.Recv {
		g := &st.rp.Recv[gi]
		waited := 0.0
		limit := bp.bound(gi)
		if bp.forced != nil && st.staleCount[gi] > limit {
			bp.forced[gi]++
		}
		for st.staleCount[gi] > limit {
			// Keep the relay pumped inside the poll loop: an aggregator must
			// go on forwarding while it waits, and a member's relayed data
			// can only arrive through it.
			if err := st.relay.Pump(); err != nil {
				return 0, err
			}
			if st.adopt(gi) {
				break
			}
			if waited >= maxWait {
				return 0, fmt.Errorf("rank %d: contributor rank %d over-stale for %.3gs in bounded-staleness mode",
					st.rank, g.Peer, waited)
			}
			st.c.Proc().Sleep(pollInterval)
			waited += pollInterval
			stopNow, err := bp.det.Step(false)
			if err != nil {
				return 0, err
			}
			if stopNow {
				return outConverged, nil
			}
			if pk := st.c.TryRecv(mp.AnySource, tagAbort); pk != nil {
				st.c.Release(pk)
				return outAborted, nil
			}
		}
	}
	return outContinue, nil
}
