// The event loop and its sharding: per-cluster scheduler lanes advancing
// inside conservative safe windows derived from WAN lookahead. A lane resumes
// its processes as coroutines (coro.go), one at a time; the vast majority of
// events are intra-cluster and independent between clusters, which is
// exactly the structure conservative parallel discrete-event simulation
// exploits.
//
// The model: processes are partitioned by cluster into lanes. Each lane owns
// its processes, its own indexed min-heap (sched.go) and its own commit
// loop, so intra-cluster events never touch a channel.
// A coordinator (the Run goroutine) advances the lanes in windows. At each
// window barrier it applies the cross-lane deposits accumulated in the
// per-lane inboxes, computes T = min over lanes of the earliest pending
// event, and opens the window [T, H) with horizon H = T + L, where L is the
// lookahead: the minimum latency of any inter-cluster route, scaled
// conservatively below any fault-plan latency reduction. Every lane then
// commits all of its events strictly earlier than H without synchronizing.
// A message between lanes takes an inter-cluster route, so it arrives at
// least L after its send slice — at or past H — and therefore cannot affect
// any event inside the window: lanes are causally independent below the
// horizon. A runtime guard panics if a cross-lane arrival ever lands below
// the horizon (a platform whose representative-route lookahead overestimates
// an actual route).
//
// Inter-cluster sends still serialize — they update shared WAN link state
// (FIFO queues, fair shares) that other lanes also route through, and the
// outcome depends on order. A process reaching an inter-cluster send parks
// mid-send and requests a WAN turn from the coordinator; once every lane
// has parked (window done or WAN-parked), the coordinator grants the
// pending request with the smallest (send time, process ID) key, making
// that process the unique runner in the whole engine for the duration of
// its link updates and deposit. Lane frontiers advance in non-decreasing
// key order and grants are only issued while every lane is parked, so the
// minimum pending request is globally minimal: WAN link updates happen in
// exactly the global sequential order, including for sends whose
// destination shares the sender's lane (fewer lanes than clusters).
//
// Determinism contract: the merged run is byte-identical to the single-lane
// indexed scheduler — obs exports, metrics, iterates — for any lane
// and worker count. The sequential commit sequence is non-decreasing in
// (time, process ID) (every arrival is strictly later than its send slice),
// so each lane's commit log is sorted and a k-way merge by (time, process
// ID) reconstructs the exact global order. While sharded, obs emissions
// are buffered per lane (the obs recorder in journal mode) in per-commit
// groups, and replayed in merged order after the run; fault milestones
// (faultState.emit) are suppressed during the run and re-emitted at their
// exact sequential positions during the merge.
package vgrid

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
)

// commitGroup delimits one committed (or collected) slice in a lane's
// buffered emission log: the journal-operation range [opsLo, opsHi) the
// slice produced. opsSplit separates the scheduler-side emissions that
// precede the fault-milestone flush in the sequential loop (the wait span)
// from everything after it; flush marks groups that correspond to a
// sequential commit (where faultState.emit runs) as opposed to a
// deferred-cost collection (where it does not).
type commitGroup struct {
	t                      float64
	proc                   int32
	flush                  bool
	opsLo, opsSplit, opsHi int32
}

// parkMsg is a lane's report to the coordinator that it has stopped
// running: wan set means one of its processes is parked mid-send awaiting a
// serialized WAN turn, keyed by the send slice (t, id) and granted through
// the lane's grant channel; wan unset means the lane finished its window
// (its earliest pending event is at or past the horizon).
type parkMsg struct {
	ln  *lane
	wan bool
	t   float64
	id  int
}

// lane is one scheduler shard: a set of processes (one or more whole
// clusters), their event heap, their commit loop, their hot-path
// pools and — while sharded — their buffered emission log and cross-lane
// inbox. A single-lane engine runs exactly one lane over every process.
type lane struct {
	id    int
	eng   *Engine
	procs []*Proc

	// idx is the lane's event index: a binary min-heap of schedulable
	// processes keyed on (next-event time, ID). See sched.go.
	idx []*Proc
	// limit is the exclusive horizon of the window being run; picked the
	// process advance committed last, which the lane loop resumes next.
	limit  float64
	picked *Proc
	// grant delivers the lane's WAN turns: a process parked mid-send blocks
	// its lane, so one slot is all the coordinator ever fills.
	grant chan struct{}
	// windowCh delivers the horizon of each window the coordinator opens
	// for this lane (sharded mode only).
	windowCh chan float64
	// inbox accumulates cross-lane deposits addressed to this lane's
	// processes; the coordinator applies it at the next window barrier.
	// Appends happen only during serialized WAN turns, so no lock is
	// needed.
	inbox []*Message
	// now is the lane's high-water commit time (sharded mode; the
	// single-lane path maintains Engine.now directly).
	now float64
	// commits counts committed slices (collections excluded).
	commits int64

	// rec is the lane's journal-mode obs recorder, set while sharded with a
	// recorder attached (nil otherwise): emissions are buffered per commit
	// group and replayed in merged order after the run.
	rec    *obs.Recorder
	groups []commitGroup

	// msgFree and floatFree are the lane's hot-path pools: delivered
	// message envelopes and payload buffers by power-of-two size class.
	// All pool operations happen at points serialized within the lane, so
	// no locking is needed. See pool.go.
	msgFree   []*Message
	floatFree [maxPoolClass + 1][][]float64
}

// obsRec returns the recorder emissions from this lane must go to: the
// lane's journal while sharded, the engine's recorder otherwise. A nil
// return means observability is off.
func (ln *lane) obsRec() *obs.Recorder {
	if ln.rec != nil {
		return ln.rec
	}
	return ln.eng.obs
}

// beginGroup opens a buffered commit group for a slice at key (t, proc).
func (ln *lane) beginGroup(t float64, proc int, flush bool) {
	if ln.rec == nil {
		return
	}
	lo := int32(ln.rec.NumOps())
	ln.groups = append(ln.groups, commitGroup{
		t: t, proc: int32(proc), flush: flush,
		opsLo: lo, opsSplit: lo,
	})
}

// splitGroup marks the fault-flush position inside the current group: the
// point where the sequential loop would emit pending fault milestones
// (after the wait span, before the slice body).
func (ln *lane) splitGroup() {
	if ln.rec == nil {
		return
	}
	ln.groups[len(ln.groups)-1].opsSplit = int32(ln.rec.NumOps())
}

// endGroup closes the current buffered commit group.
func (ln *lane) endGroup() {
	if ln.rec == nil {
		return
	}
	ln.groups[len(ln.groups)-1].opsHi = int32(ln.rec.NumOps())
}

// run advances the lane until its earliest pending event is at or past
// limit (exclusive horizon) or no process is schedulable. The single-lane
// engine calls it once with an infinite limit — this loop, not a separate
// code path, is the whole single-lane scheduler; the sharded coordinator
// calls it once per window through windowLoop. The loop only switches: a
// process that yields has already committed the lane's next event itself.
func (ln *lane) run(limit float64) {
	ln.limit = limit
	for p := ln.advance(nil); p != nil; p = ln.picked {
		p.next() // returns when p yields to another pick, or finishes
		if p.st() == stateDone {
			ln.endGroup()
			ln.picked = ln.advance(nil)
		}
	}
}

// advance commits the lane's earliest pending event and returns its process,
// ready to be resumed, or nil when that event is at or past the limit (no
// process schedulable included). held is a keyed process outside the heap, competing
// for the pick (takeMin), or nil. It runs on whichever side of the switch
// holds the lane: the lane loop, or the coroutine of the process that just
// yielded — which, when the pick is that process again, carries on without a
// switch.
func (ln *lane) advance(held *Proc) *Proc {
	e := ln.eng
	for {
		var resumeAt float64
		var deliver *Message
		p := ln.takeMin(held)
		held = nil
		if p != nil {
			resumeAt = p.key
			if p.st() == stateBlocked {
				deliver = p.deliverable()
			}
		}
		if e.crossCheck != nil {
			e.crossCheck(ln, p, resumeAt, deliver)
		}
		if p == nil {
			return nil
		}
		if p.st() == stateDeferred {
			// The pick landed on a deferred segment's lower bound, the end of
			// its cost floor. Its true resume time needs the measured cost:
			// collect it, charge, and pick again — another process may now
			// be earlier. Deterministic regardless of which segments have
			// physically finished, because every deferred process that could
			// precede the final pick is resolved before committing. A cost
			// below the floor fails the process when it resumes (unless the
			// segment's own panic already will).
			ln.beginGroup(resumeAt, p.ID, false)
			<-p.computing
			p.inFlight = false
			if err := p.chargeDeferred(p.deferredFlops); err != nil && p.fnPanic == nil {
				p.fnPanic = err
			}
			p.setSt(stateComputing)
			p.key = ln.eventTime(p)
			held = p
			ln.endGroup()
			continue
		}
		ln.beginGroup(resumeAt, p.ID, true)
		if p.st() == stateBlocked {
			p.BlockedTime += resumeAt - p.lastBlockedAt
			if o := ln.obsRec(); o != nil && (resumeAt > p.lastBlockedAt || deliver != nil) {
				s := obs.Span{Track: p.Name, Cat: obs.CatWait, Name: "wait",
					Start: p.lastBlockedAt, End: resumeAt}
				if deliver != nil {
					s.Cause = deliver.seq
					s.From = e.procs[deliver.From].Name
					s.Tag = deliver.Tag
					s.Bytes = int64(deliver.Bytes)
				}
				o.Span(s)
			}
		}
		if p.inFlight {
			// The pick is committed at the pre-charged virtual time; only the
			// wall clock waits for the segment to finish (ComputeFunc) — a
			// collected ComputeDeferred segment has already been waited for.
			<-p.computing
			p.inFlight = false
		}
		p.clock = resumeAt
		ln.commits++
		if e.sharded {
			if resumeAt > ln.now {
				ln.now = resumeAt
			}
			ln.splitGroup()
		} else {
			if resumeAt > e.now {
				e.now = resumeAt
			}
			// Watermark for the streaming trace mode: every span ending
			// before this commit is final (a no-op recorder call otherwise).
			e.obs.Advance(resumeAt)
			if e.faults != nil && e.obs != nil {
				e.faults.emit(e.now, e.obs)
			}
		}
		p.setSt(stateRunning)
		p.pendingMatch = nil
		return p
	}
}

// windowLoop is the lane goroutine of a sharded run: it executes one
// window per horizon received on windowCh and reports back to the
// coordinator when the lane has drained its events below the horizon.
func (ln *lane) windowLoop() {
	for h := range ln.windowCh {
		ln.run(h)
		ln.eng.parkCh <- parkMsg{ln: ln}
	}
}

// ErrUnshardable is wrapped by the error Engine.Run returns when a sharded
// run finds a link shared between scheduler lanes (cluster3's NICs carry
// both intra- and inter-site routes): the topology only runs on one lane.
var ErrUnshardable = errors.New("this topology cannot be sharded — run with a single lane")

// markLinks validates link ownership on a sharded engine: every link is
// either private to one lane (intra-cluster routes) or global
// (inter-cluster routes, touched only during serialized WAN turns). A link
// appearing in both roles — or in two lanes' intra routes — would be
// updated out of order between lanes, so the engine refuses the topology
// instead of silently corrupting it: the send fails with ErrUnshardable and
// so does the run, whatever the other processes make of the stall. The
// check is a per-send atomic load after the first classification.
func (ln *lane) markLinks(links []*Link, serialized bool) error {
	want := int32(-1)
	if !serialized {
		want = int32(ln.id) + 1
	}
	for _, l := range links {
		c := l.laneClass.Load()
		if c == want {
			continue
		}
		if c == 0 && l.laneClass.CompareAndSwap(0, want) {
			continue
		}
		if l.laneClass.Load() != want {
			err := fmt.Errorf("vgrid: link %q is shared between scheduler lanes: %w", l.Name, ErrUnshardable)
			ln.eng.unshardable.CompareAndSwap(nil, &err)
			return err
		}
	}
	return nil
}

// resolveLaneCount decides how many scheduler lanes the run uses, from the
// requested count (SetLanes), the platform's cluster structure and the
// available lookahead. Anything that breaks the sharding preconditions —
// the per-pick cross-check hook, hosts outside every cluster, a missing or
// non-positive inter-cluster lookahead — falls back to a single lane, which
// is always correct.
func (e *Engine) resolveLaneCount() int {
	nc := e.Platform.NumClusters()
	nl := e.lanesReq
	if nl == 0 {
		nl = nc
	}
	if nl > nc {
		nl = nc
	}
	if nl < 1 {
		nl = 1
	}
	if nl == 1 || e.crossCheck != nil || len(e.procs) < 2 {
		return 1
	}
	for _, p := range e.procs {
		if p.host.cluster < 0 {
			return 1
		}
	}
	if l := e.resolveLookahead(); !(l > 0) || math.IsInf(l, 1) {
		return 1
	}
	return nl
}

// resolveLookahead computes the safe-window lookahead L: the tests'
// lookaheadOverride if set, otherwise the platform's minimum
// inter-cluster route latency scaled below every fault-plan latency
// reduction (factors below 1 shrink real route latencies, so they must
// shrink the bound too; factors above 1 only widen the margin) and shaved
// by one part in 10⁹ against float rounding. The result is memoized in
// e.lookahead.
func (e *Engine) resolveLookahead() float64 {
	if e.lookahead != 0 {
		return e.lookahead
	}
	l := e.lookaheadOverride
	if l == 0 {
		l = e.Platform.minInterClusterLatency()
		if e.faults != nil {
			for _, r := range e.faults.plan.Links {
				if r.LatencyFactor > 0 && r.LatencyFactor < 1 {
					l *= r.LatencyFactor
				}
			}
		}
		l *= 1 - 1e-9
	}
	e.lookahead = l
	return l
}

// buildLanes partitions the processes into nl lanes by cluster index
// (contiguous blocks of clusters per lane) and initializes the sharding
// state when nl > 1.
func (e *Engine) buildLanes(nl int) {
	nc := e.Platform.NumClusters()
	e.lanes = make([]*lane, nl)
	for i := range e.lanes {
		e.lanes[i] = &lane{id: i, eng: e}
	}
	for _, p := range e.procs {
		li := 0
		if nl > 1 {
			li = p.host.cluster * nl / nc
		}
		p.ln = e.lanes[li]
		p.ln.procs = append(p.ln.procs, p)
	}
	if nl > 1 {
		e.sharded = true
		for _, ln := range e.lanes {
			if e.obs != nil {
				ln.rec = obs.NewJournal()
			}
			ln.windowCh = make(chan float64)
			ln.grant = make(chan struct{}, 1)
		}
		e.parkCh = make(chan parkMsg)
	}
}

// runSharded is the window coordinator. Each iteration: apply the
// cross-lane deposits parked in the lane inboxes, compute the global
// earliest event T, open the window [T, T+L) on every lane with work below
// the horizon, then serve the park/grant loop — when every resumed lane
// has parked, grant the pending WAN request with the smallest (send time,
// process ID) key and let its lane continue; the window ends when no lane
// is running and no WAN request is pending. Terminates when no process is
// schedulable anywhere (completion or deadlock).
func (e *Engine) runSharded() {
	for _, ln := range e.lanes {
		ln.initIndex()
		go ln.windowLoop()
	}
	running := 0
	var wanQ []parkMsg
	for {
		for _, ln := range e.lanes {
			for _, m := range ln.inbox {
				dst := e.procs[m.To]
				dst.mailbox = append(dst.mailbox, m)
				ln.noteDeposit(dst, m)
			}
			ln.inbox = ln.inbox[:0]
		}
		t := math.Inf(1)
		for _, ln := range e.lanes {
			if p := ln.idxMin(); p != nil && p.key < t {
				t = p.key
			}
		}
		if math.IsInf(t, 1) {
			break
		}
		h := t + e.lookahead
		e.horizon = h
		e.windows++
		for _, ln := range e.lanes {
			if p := ln.idxMin(); p != nil && p.key < h {
				running++
				ln.windowCh <- h
			}
		}
		for running > 0 || len(wanQ) > 0 {
			if running == 0 {
				best := 0
				for i, r := range wanQ[1:] {
					if r.t < wanQ[best].t || (r.t == wanQ[best].t && r.id < wanQ[best].id) {
						best = i + 1
					}
				}
				req := wanQ[best]
				wanQ[best] = wanQ[len(wanQ)-1]
				wanQ = wanQ[:len(wanQ)-1]
				e.wanTurns++
				running++
				req.ln.grant <- struct{}{}
				continue
			}
			pm := <-e.parkCh
			running--
			if pm.wan {
				wanQ = append(wanQ, pm)
			}
		}
	}
	for _, ln := range e.lanes {
		close(ln.windowCh)
		if ln.now > e.now {
			e.now = ln.now
		}
	}
}

// mergeShardLog replays the lanes' obs journals into the engine's recorder
// in global commit order: a k-way merge of the per-lane commit-group lists
// by (time, process ID). Each lane's log is sorted by construction (lane
// commits are non-decreasing in that key) and keys never tie across lanes
// (a process lives in exactly one lane), so the merge reconstructs the
// sequential emission order exactly. Fault milestones are re-emitted at
// their sequential positions: inside each flush group between the pre-split
// ops (the wait span) and everything after, exactly where the single-lane
// loop calls faultState.emit.
func (e *Engine) mergeShardLog() {
	if len(e.lanes) < 2 || e.lanes[0].rec == nil {
		return
	}
	type cursor struct {
		ln *lane
		gi int
		rp *obs.Replayer
	}
	cursors := make([]*cursor, 0, len(e.lanes))
	for _, ln := range e.lanes {
		cursors = append(cursors, &cursor{ln: ln, rp: ln.rec.NewReplayer(e.obs)})
	}
	for {
		var bc *cursor
		for _, c := range cursors {
			if c.gi >= len(c.ln.groups) {
				continue
			}
			g := &c.ln.groups[c.gi]
			if bc == nil {
				bc = c
				continue
			}
			bg := &bc.ln.groups[bc.gi]
			if g.t < bg.t || (g.t == bg.t && g.proc < bg.proc) {
				bc = c
			}
		}
		if bc == nil {
			break
		}
		g := &bc.ln.groups[bc.gi]
		bc.gi++
		// Watermark for the streaming trace mode: groups replay in
		// non-decreasing (t, proc) order, so g.t is a valid commit-time
		// watermark for the destination recorder. The flushed span set at
		// any watermark is exactly {End < t}, so the streamed bytes match a
		// single-lane run even though the watermark subsequence differs.
		e.obs.Advance(g.t)
		bc.rp.ReplayTo(int(g.opsSplit))
		if g.flush && e.faults != nil {
			e.faults.emit(g.t, e.obs)
		}
		bc.rp.ReplayTo(int(g.opsHi))
	}
}
