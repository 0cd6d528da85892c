package core

import (
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
// decision is reached. The two implementations reproduce the paper's
// synchronous and asynchronous variants.
type exchangePolicy interface {
	exchange(st *rankState) (outcome, error)
}

// newExchangePolicy returns the rank's policy; an asynchronous one carries
// the rank's node of the detection tree.
func newExchangePolicy(o Options, c *mp.Comm) exchangePolicy {
	if !o.Async {
		return syncPolicy{}
	}
	return &asyncPolicy{det: detect.NewDecentralized(c)}
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

// exchange pumps the relay first (an aggregator forwards whatever arrived
// since its last iteration, a member stages the freshest record per origin),
// then adopts the freshest update of every group.
func (ap *asyncPolicy) exchange(st *rankState) (outcome, error) {
	if err := st.relay.Pump(); err != nil {
		return 0, err
	}
	for gi := range st.rp.Recv {
		st.adopt(gi)
	}
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

// adopt applies group gi's freshest arrived update, if any, as fresh data.
func (st *rankState) adopt(gi int) {
	pk := st.relay.Latest(gi)
	if pk == nil {
		return
	}
	st.applyGroup(gi, pk.Floats[0], pk.Floats[1], pk.Floats[msgHdr:])
	st.c.Release(pk)
	st.freshSeen[gi] = true
}
