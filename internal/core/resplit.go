// The live-decomposition epochs: with Options.Adapt on, the synchronous
// engine loop pauses every AdaptInterval iterations for a deterministic
// controller round that may resplit the decomposition online.
//
// Protocol (one epoch, all ranks in lockstep at the end of an iteration):
//
//  1. Every rank gathers [busyΔ, wallΔ, nominalΔ, speed] to rank 0. BusyΔ
//     is committed clock time inside compute segments (vgrid.Proc.BusyTime),
//     nominalΔ the same segments at nameplate rate (Proc.ComputeTime); under
//     a fault-plan host slowdown busyΔ/nominalΔ is the degradation factor —
//     the signal the controller rebalances on.
//  2. Rank 0 feeds the observations to the adapt.Controller, and guards any
//     accepted proposal with the paper's Theorem-1 contraction bound
//     (adapt.CheckStarts). Unsafe proposals are counted
//     (Result.ResplitRejected) and skipped, sub-hysteresis ones skipped.
//  3. Rank 0 broadcasts the decision: either "no change" or the new starts
//     and overlap. An idle epoch therefore moves a few doubles, not the
//     iterate — the controller is cheap enough to poll every few iterations.
//  4. On an applied decision every rank gathers its owned iterate segment to
//     rank 0, which assembles the global vector and sends every rank exactly
//     the window its new band and dependency columns read — O(band) targeted
//     messages instead of an O(n) broadcast serialized through the root NIC,
//     and paid only when a transition actually happens. Then every rank
//     independently rebuilds: a cloned
//     Decomposition.Resplit, a communication-plan rebuild through the shared
//     builder (charged as a declared compute segment), and a fresh rank
//     state via newRankState — which re-derives the symbolic pattern and
//     charges the full factorization to the virtual clock. The iterate, the
//     dependency values z and the incremental-update baselines are remapped
//     from the broadcast global vector, so the next iteration continues the
//     same fixed-point sequence on the new bands.
//
// Every input is committed virtual-schedule state and every decision is a
// pure function of it, so adaptive runs remain byte-identical for any worker
// or lane count — the vgrid determinism contract extends to resplits.

package core

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/obs"
	"repro/internal/plan"
)

// adaptRank is one rank's state for the adaptive epochs. Only rank 0 carries
// the controller; the others participate in the gather/broadcast rounds and
// apply the decisions.
type adaptRank struct {
	interval    int
	ctrl        *adapt.Controller // rank 0 only
	lastBusy    float64           // BusyTime watermark at the last epoch
	lastCompute float64           // ComputeTime (nameplate) watermark
	lastWall    float64           // virtual time of the last epoch
	flops       float64           // this rank's transition flops, merged at finish
}

// newAdaptRank arms the adaptive epochs for the synchronous engine loop, or
// returns nil when the options leave the decomposition static. Asynchronous
// runs never resplit (a global transition needs lockstep), so Adapt is a
// no-op there. The epochs resize one contiguous band per rank (st.bands[0] throughout this file):
// Options.check rejects Adapt with BandsPerProc > 1.
func newAdaptRank(st *rankState) *adaptRank {
	o := st.o
	if !o.Adapt || o.Async {
		return nil
	}
	ad := &adaptRank{interval: o.AdaptInterval}
	if st.rank == 0 {
		ad.ctrl = adapt.NewController(o.AdaptHysteresis)
	}
	return ad
}

// due reports whether the engine loop should run an epoch after this
// iteration.
func (ad *adaptRank) due(iter int) bool { return iter%ad.interval == 0 }

// epoch runs one controller round: gather observations, decide at rank 0,
// broadcast, and — when a resplit was accepted — rebuild the rank state on
// the new decomposition.
func (ad *adaptRank) epoch(st *rankState, pend *Pending) error {
	c := st.c
	epochStart := c.Now()
	busyDelta := c.Proc().BusyTime - ad.lastBusy
	nominalDelta := c.Proc().ComputeTime - ad.lastCompute
	wallDelta := epochStart - ad.lastWall

	stats := []float64{busyDelta, wallDelta, nominalDelta, c.Proc().Host().Speed}
	gathered, err := c.Gather(0, stats)
	if err != nil {
		return err
	}
	var decision []float64
	if st.rank == 0 {
		decision = ad.decide(st, pend, gathered)
		c.Charge()
	}
	decision, err = c.Bcast(0, decision)
	if err != nil {
		return err
	}

	if decision[0] != 0 {
		overlap := int(decision[1])
		maxDelta := int(decision[2])
		L := st.d.L()
		starts := make([]int, L+1)
		for i := range starts {
			starts[i] = int(decision[3+i])
		}
		x, off, err := ad.redistribute(st, starts, overlap)
		if err != nil {
			return err
		}
		spent, err := st.resplit(starts, overlap, x, off)
		if err != nil {
			return fmt.Errorf("rank %d: resplit at iteration %d: %w", st.rank, st.iter, err)
		}
		// Ranks in different scheduler lanes run concurrently inside a safe
		// window, so the shared Result is not written here: the per-rank
		// total merges in the engine's finish path like the factor flops.
		ad.flops += spent
		if sc := st.ctx.Observe(); sc != nil {
			sc.Span(obs.Span{Cat: obs.CatPhase, Name: "resplit", Iter: st.iter,
				Start: epochStart, End: c.Now(), Flops: spent})
		}
		if st.rank == 0 {
			pend.res.Resplits++
			pend.res.ResplitEvents = append(pend.res.ResplitEvents, ResplitEvent{
				Time: c.Now(), Iter: st.iter, MaxDelta: maxDelta, Overlap: overlap})
			if sc := st.ctx.Observe(); sc != nil {
				sc.Sample("resplit", c.Now(), float64(maxDelta))
				sc.Count("resplit", 1)
			}
		}
	}
	ad.lastBusy = c.Proc().BusyTime
	ad.lastCompute = c.Proc().ComputeTime
	ad.lastWall = c.Now()
	return nil
}

// decide is rank 0's controller round: build the per-rank observations from
// the gathered stat windows, run the controller and the Theorem-1 safety
// check, and encode the decision for the broadcast: [0] for "no change", or
// [1, overlap, maxDelta, starts[0..L]] for an accepted transition.
func (ad *adaptRank) decide(st *rankState, pend *Pending, gathered [][]float64) []float64 {
	d := st.d
	observations := make([]adapt.Observation, len(gathered))
	for r, pay := range gathered {
		b := d.Bands[r]
		wait := pay[1] - pay[0]
		if wait < 0 {
			wait = 0
		}
		observations[r] = adapt.Observation{Rank: r, Rows: b.End - b.Start,
			Busy: pay[0], Nominal: pay[2], Speed: pay[3], Wait: wait}
	}
	prop, changed, err := ad.ctrl.Propose(d.N, d.Starts(), d.Overlap, observations)
	if err != nil || !changed {
		// A controller error keeps the current split, like a quiet epoch.
		return []float64{0}
	}
	starts := prop.Starts
	if starts == nil {
		// Overlap-only proposal: the owned cells stay, the solved ranges move.
		starts = d.Starts()
	}
	// The Theorem-1 contraction bound over the proposed bands is an O(nnz)
	// row sweep; charge it where it runs (the caller reconciles via Charge).
	st.ctx.Counter.Add(2 * float64(st.aGlob.NNZ()))
	if _, err := adapt.CheckStarts(st.aGlob, starts, prop.Overlap); err != nil {
		pend.res.ResplitRejected++
		if sc := st.ctx.Observe(); sc != nil {
			sc.Count("resplit_unsafe", 1)
		}
		return []float64{0}
	}
	decision := make([]float64, 3+len(starts))
	decision[0] = 1
	decision[1] = float64(prop.Overlap)
	decision[2] = float64(prop.MaxDelta)
	for i, s := range starts {
		decision[3+i] = float64(s)
	}
	return decision
}

// redistribute moves the committed iterate onto the accepted layout: the
// owned segments gather at rank 0, which assembles the global vector and
// sends every rank the window [off, off+len) covering its new band and every
// dependency column its new rows read. The window bounds come from one row
// sweep over the sparsity (charged like the other transition scans), so the
// messages stay O(band + coupling reach) — the only O(n) state in the round
// lives at rank 0. Returns this rank's window and its base index.
func (ad *adaptRank) redistribute(st *rankState, starts []int, overlap int) ([]float64, int, error) {
	c, d := st.c, st.d
	gathered, err := c.Gather(0, st.bands[0].owned())
	if err != nil {
		return nil, 0, err
	}
	if st.rank != 0 {
		pk := c.Recv(0, tagAdapt)
		off := int(pk.Floats[0])
		win := make([]float64, len(pk.Floats)-1)
		copy(win, pk.Floats[1:])
		c.Release(pk)
		return win, off, nil
	}
	x := make([]float64, d.N)
	for r, seg := range gathered {
		b := d.Bands[r]
		copy(x[b.Start:b.End], seg)
	}
	d2 := d.Clone()
	if err := d2.Resplit(starts, overlap); err != nil {
		return nil, 0, err
	}
	a := st.aGlob
	spans := make([][2]int, c.Size())
	scan := 2 * float64(a.NNZ())
	c.ComputeSeg(scan, func() {
		st.ctx.Counter.Add(scan)
		for r := range spans {
			nb := d2.Bands[r]
			lo, hi := nb.Lo, nb.Hi
			for i := nb.Lo; i < nb.Hi; i++ {
				for _, j := range a.ColInd[a.RowPtr[i]:a.RowPtr[i+1]] {
					if j < lo {
						lo = j
					}
					if j >= hi {
						hi = j + 1
					}
				}
			}
			spans[r] = [2]int{lo, hi}
		}
	})
	for r := 1; r < c.Size(); r++ {
		lo, hi := spans[r][0], spans[r][1]
		msg := make([]float64, 1+hi-lo)
		msg[0] = float64(lo)
		copy(msg[1:], x[lo:hi])
		if err := c.SendFloats(r, tagAdapt, msg); err != nil {
			return nil, 0, err
		}
	}
	return x[spans[0][0]:spans[0][1]], spans[0][0], nil
}

// resplit rebuilds this rank on the new partition: transition a clone of the
// live decomposition, rebuild the communication plan from the shared
// builder (relay routes included), free the old working set, construct a
// fresh rank state (fresh symbolic pattern, full factorization charged to
// the virtual clock) and remap the iterate, dependency values and
// incremental-update baselines from the redistributed iterate window x,
// whose first element holds global index off. It returns the arithmetic the
// transition cost (plan rebuild + factorization).
func (st *rankState) resplit(starts []int, overlap int, x []float64, off int) (float64, error) {
	c, ctx, o := st.c, st.ctx, st.o

	d2 := st.d.Clone()
	if err := d2.Resplit(starts, overlap); err != nil {
		return 0, err
	}

	// The plan rebuild sweeps the sparsity once per band pass; 2·nnz is its
	// declared (and counted) cost, charged like any other compute segment.
	planFlops := 2 * float64(st.aGlob.NNZ())
	var cp2 *plan.Plan
	var planErr error
	c.ComputeSeg(planFlops, func() {
		ctx.Counter.Add(planFlops)
		cp2, planErr = buildCommPlan(st.aGlob, d2, st.cp.Cluster)
	})
	if planErr != nil {
		return 0, planErr
	}

	// Release the old band's working set before the rebuild allocates the new
	// one, so the memory accounting tracks the live footprint, not the union.
	if o.TrackMemory {
		c.Proc().Free(st.bands[0].workingSet() + st.bands[0].factorBytes())
	}

	st2, err := newRankState(c, ctx, st.aGlob, st.bGlob, d2, cp2, o)
	if err != nil {
		return 0, err
	}
	refactorFlops := st2.factFlops

	// Carry the iteration identity over and remap the numeric state. The
	// redistributed x is the committed global iterate over this rank's
	// window, and every rank restarts from its restriction — so for every
	// dependency column the contributors' weighted values sum to exactly
	// x[j-off], which is what z and the lastRecv baselines are set to.
	st2.iter = st.iter
	st2.idleSteps = st.idleSteps
	st2.diff = st.diff
	st2.stableStart = st.iter
	st2.factFlops += st.factFlops
	nb := &st2.bands[0]
	copy(nb.xSub, x[nb.band.Lo-off:nb.band.Hi-off])
	copy(nb.xPrev, nb.xSub)
	for i, j := range nb.depCols {
		nb.z[i] = x[j-off]
	}
	iterF := float64(st.iter)
	for gi := range st2.rp.Recv {
		g := &st2.rp.Recv[gi]
		last := st2.lastRecv[gi]
		at := 0
		for _, seg := range g.Segs {
			for i, pos := range seg.Pos {
				last[at+i] = x[nb.depCols[pos]-off]
			}
			at += len(seg.Pos)
		}
		st2.verIncorporated[gi] = iterF
		st2.echoFrom[gi] = iterF
	}

	// Replace in place: the engine loop, the persistent Session and the
	// pending result all hold this pointer. stepFn must be rebound — the
	// method value newRankState built is bound to st2, and a segment body
	// writing its diff to the abandoned copy would freeze the convergence
	// test.
	*st = *st2
	st.stepFn = st.step
	return planFlops + refactorFlops, nil
}
