// Indexed event scheduling: a binary min-heap over per-process next-event
// times replaces the O(P) pickNext scan, so a commit costs O(log P) instead
// of a sweep over every process — the difference between minutes and seconds
// for 1000-host grids. The heap key is the pair (next-event time, process
// ID); keys are totally ordered, so the heap's minimum is exactly the
// process the reference scan would select and the virtual schedule (and
// with it every recorded span) is unchanged. Each scheduler lane owns one
// heap over its own processes (lane.go); a single-lane engine has one heap
// over everything, exactly the pre-shard structure.
//
// Re-keying is incremental at every commit point:
//
//   - a process that yields recomputes its key from its new state and is
//     held outside the heap: the next pick tests it against the root
//     (takeMin) and indexes it only when another process comes first;
//   - a Send deposit into a blocked receiver's mailbox updates the
//     receiver's pending-match and sifts it up if the arrival is earlier;
//   - collecting a deferred segment's measured cost re-keys its owner from
//     the lower bound (the end of its cost floor) to the true resume time;
//   - fault clamps are folded into the key itself (eventTime applies
//     faultState.wake), so an outage never requires a rescan.
//
// The pre-index linear scan survives in sched_test.go as the oracle: the
// equivalence tests install it through Engine.crossCheck and compare every
// heap pick against it.

package vgrid

import "math"

// eventTime computes a process's next-event key: the earliest virtual
// instant the scheduler could commit it, clamped past its host's outage
// windows. +Inf marks an unschedulable process (done, blocked forever, or
// on a host that never returns).
func (ln *lane) eventTime(p *Proc) float64 {
	var t float64
	switch p.st() {
	case stateReady, stateComputing:
		t = p.clock
	case stateDeferred:
		// The end of the segment's cost floor — a lower bound on the true
		// resume time; the lane loop resolves the bound before committing to
		// any later event.
		t = p.until
	case stateBlocked:
		t = p.until
		if m := p.pendingMatch; m != nil {
			if ta := math.Max(p.clock, m.Arrival); ta <= t {
				t = ta
			}
		}
		if math.IsInf(t, 1) {
			return t
		}
	default:
		return math.Inf(1)
	}
	if fs := ln.eng.faults; fs != nil {
		t = fs.wake(p.host, t)
	}
	return t
}

// deliverable returns the message whose arrival would resume the blocked
// process at its current key, or nil when the key is a timeout deadline.
func (p *Proc) deliverable() *Message {
	if m := p.pendingMatch; m != nil {
		if ta := math.Max(p.clock, m.Arrival); ta <= p.until {
			return m
		}
	}
	return nil
}

// idxLess orders heap entries by (key, ID) — the same total order the
// reference scan's tie-breaking uses, so the minimum is unique.
func idxLess(a, b *Proc) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.ID < b.ID
}

func (ln *lane) idxSwap(i, j int) {
	h := ln.idx
	h[i], h[j] = h[j], h[i]
	h[i].heapPos = i
	h[j].heapPos = j
}

func (ln *lane) idxUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !idxLess(ln.idx[i], ln.idx[parent]) {
			break
		}
		ln.idxSwap(i, parent)
		i = parent
	}
}

func (ln *lane) idxDown(i int) {
	n := len(ln.idx)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && idxLess(ln.idx[l], ln.idx[small]) {
			small = l
		}
		if r < n && idxLess(ln.idx[r], ln.idx[small]) {
			small = r
		}
		if small == i {
			return
		}
		ln.idxSwap(i, small)
		i = small
	}
}

// initIndex builds the heap over the lane's processes at Run start.
func (ln *lane) initIndex() {
	ln.idx = make([]*Proc, 0, len(ln.procs))
	for _, p := range ln.procs {
		p.key = ln.eventTime(p)
		p.heapPos = len(ln.idx)
		ln.idx = append(ln.idx, p)
	}
	for i := len(ln.idx)/2 - 1; i >= 0; i-- {
		ln.idxDown(i)
	}
}

// push indexes a process that is outside the heap.
func (ln *lane) push(p *Proc) {
	p.heapPos = len(ln.idx)
	ln.idx = append(ln.idx, p)
	ln.idxUp(p.heapPos)
}

// takeMin removes and returns the (key, ID) minimum of the heap and held, a
// keyed process outside it (or nil). A held winner costs no heap operation; a
// held loser takes the root's slot and sifts down. A pick at or past the
// window limit (unschedulable included) is indexed again: takeMin returns nil.
func (ln *lane) takeMin(held *Proc) *Proc {
	p := held
	if n := len(ln.idx); n > 0 && (p == nil || idxLess(ln.idx[0], p)) {
		p = ln.idx[0]
		if held == nil {
			held = ln.idx[n-1]
			ln.idx = ln.idx[:n-1]
		}
		if len(ln.idx) > 0 {
			ln.idx[0] = held
			held.heapPos = 0
			ln.idxDown(0)
		}
		p.heapPos = -1
	}
	if p != nil && p.key >= ln.limit {
		ln.push(p)
		return nil
	}
	return p
}

// idxMin returns the lane's schedulable process with the smallest
// (time, ID) key, or nil when every indexed process is unschedulable.
func (ln *lane) idxMin() *Proc {
	if len(ln.idx) == 0 {
		return nil
	}
	p := ln.idx[0]
	if math.IsInf(p.key, 1) {
		return nil
	}
	return p
}

// noteDeposit is the Send-side commit hook: a message just landed in dst's
// mailbox. If dst is blocked on a matching receive and the new arrival is
// earlier than its current pending match, the receiver's key decreases.
// dst must belong to this lane — cross-lane deposits go through the lane
// inbox and reach here only at the coordinator's window barrier.
func (ln *lane) noteDeposit(dst *Proc, m *Message) {
	if dst.st() != stateBlocked || !matches(m, dst.matchSrc, dst.matchTag) {
		return
	}
	pm := dst.pendingMatch
	if pm == nil || m.Arrival < pm.Arrival || (m.Arrival == pm.Arrival && m.seq < pm.seq) {
		// A waiting receiver is indexed, and its key can only fall.
		dst.pendingMatch = m
		dst.key = ln.eventTime(dst)
		ln.idxUp(dst.heapPos)
	}
}
