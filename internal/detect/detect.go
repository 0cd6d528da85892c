// Package detect implements global convergence detection for asynchronous
// iterations, step 4 of the paper's Algorithm 1, with the decentralized
// protocol of paper ref [4]: processes form a binary tree; subtree
// convergence states flow toward the root, the root triggers a verification
// wave down the tree, and only an all-yes response commits the stop. State
// changes (un-convergence) cancel pending detections.
//
// The detector is polling (non-blocking): the solver calls Step once per
// local iteration with its current local convergence state and keeps
// iterating until Step reports the global stop.
package detect

import "repro/internal/mp"

// Protocol message tags. The solver must not use tags in this range
// (reserve user tags below 1<<18). Spans record tags, so the values do not
// move.
const (
	tagState  = 1<<18 + iota // child -> parent: subtree state change
	tagVerify                // root -> leaves: verification request
	tagVResp                 // verification response (up)
	tagStop                  // commit: stop iterating
	tagResume                // verification failed: keep iterating
)

// Decentralized is the detector of one rank, a node of the binary tree over
// the ranks: parent(r) = (r−1)/2. Subtree convergence changes propagate up;
// the root launches a verification wave and commits the stop only on an
// all-yes response.
type Decentralized struct {
	c        *mp.Comm
	parent   int
	children []int

	local    bool
	childOK  map[int]bool
	lastSent float64 // -1 unsent, else 0/1 last subtree state pushed to parent

	// Verification state. Waves are epoch-tagged end to end: the root
	// numbers each round, the number rides the verify messages down and the
	// responses back up, and every participant ignores traffic from rounds
	// it is no longer in — which makes abandoning a stalled round (Refresh)
	// safe under message loss.
	verifying bool
	vrespWait map[int]bool // children we still owe a response
	vrespOK   bool
	epoch     int // root: last round started; inner: round in flight (curEpoch ≥ 0)
	curEpoch  int // non-root: epoch of the wave below us, -1 when idle
	stopped   bool
	// Detections counts completed verification rounds (diagnostics).
	Detections int
}

// NewDecentralized creates a tree-based detector over the communicator.
func NewDecentralized(c *mp.Comm) *Decentralized {
	d := &Decentralized{c: c, parent: (c.Rank() - 1) / 2, lastSent: -1, curEpoch: -1, childOK: map[int]bool{}}
	for _, ch := range []int{2*c.Rank() + 1, 2*c.Rank() + 2} {
		if ch < c.Size() {
			d.children = append(d.children, ch)
			d.childOK[ch] = false
		}
	}
	return d
}

// Refresh re-arms the protocol after suspected message loss: the node
// re-pushes its subtree state on the next Step, the root abandons a
// verification round still in flight, and an inner node stuck in a wave (its
// response, or the stop/resume order, was lost) rejoins the idle state so it
// can answer the next wave. Epoch tags keep responses from abandoned rounds
// from committing a later one, so Refresh trades only liveness recovery,
// never safety. The fault-tolerant driver calls it periodically.
func (d *Decentralized) Refresh() {
	if d.stopped {
		return
	}
	d.lastSent = -1
	if d.isRoot() {
		d.verifying = false
		d.vrespWait = nil
		return
	}
	d.curEpoch = -1
	d.vrespWait = nil
}

func (d *Decentralized) isRoot() bool { return d.c.Rank() == 0 }

func (d *Decentralized) subtreeOK() bool {
	ok := d.local
	for _, v := range d.childOK {
		ok = ok && v
	}
	return ok
}

// Step reports this process's current local convergence state and
// processes protocol traffic. It returns true when global convergence has
// been committed and the process must stop iterating.
func (d *Decentralized) Step(local bool) (bool, error) {
	if d.stopped {
		return true, nil
	}
	if d.c.Size() == 1 {
		return local, nil
	}
	c := d.c
	d.local = local

	// Drain child state changes.
	for {
		pk := c.TryRecv(mp.AnySource, tagState)
		if pk == nil {
			break
		}
		d.childOK[pk.From] = pk.Floats[0] != 0
		c.Release(pk)
	}
	// A stop order is terminal: forward down the tree and quit.
	if !d.isRoot() {
		if pk := c.TryRecv(d.parent, tagStop); pk != nil {
			c.Release(pk)
			for _, ch := range d.children {
				if err := c.Signal(ch, tagStop); err != nil {
					return false, err
				}
			}
			d.stopped = true
			return true, nil
		}
	}

	// Verification wave arriving from the parent: forward down (with the
	// round epoch) and start collecting responses.
	if !d.isRoot() && d.curEpoch < 0 {
		if pk := c.TryRecv(d.parent, tagVerify); pk != nil {
			d.curEpoch = int(pk.Floats[0])
			c.Release(pk)
			d.vrespWait = map[int]bool{}
			d.vrespOK = local
			for _, ch := range d.children {
				d.vrespWait[ch] = true
				if err := c.SendFloats(ch, tagVerify, []float64{float64(d.curEpoch)}); err != nil {
					return false, err
				}
			}
		}
	}
	// Collect verification responses from children (both root and inner),
	// ignoring answers to rounds this node is no longer in.
	if d.curEpoch >= 0 || d.verifying {
		myEpoch := d.curEpoch
		if d.isRoot() {
			myEpoch = d.epoch
		}
		for {
			pk := c.TryRecv(mp.AnySource, tagVResp)
			if pk == nil {
				break
			}
			if d.vrespWait != nil && int(pk.Floats[1]) == myEpoch {
				delete(d.vrespWait, pk.From)
				d.vrespOK = d.vrespOK && pk.Floats[0] != 0
			}
			c.Release(pk)
		}
		if d.vrespWait != nil && len(d.vrespWait) == 0 {
			if d.isRoot() {
				d.verifying = false
				d.vrespWait = nil
				d.Detections++
				if d.vrespOK && d.local {
					for _, ch := range d.children {
						if err := c.Signal(ch, tagStop); err != nil {
							return false, err
						}
					}
					d.stopped = true
					return true, nil
				}
				// Failed verification: tell everyone to keep going.
				for _, ch := range d.children {
					if err := c.SendFloats(ch, tagResume, []float64{float64(d.epoch)}); err != nil {
						return false, err
					}
				}
			} else {
				// All children answered: push the aggregate up.
				ok := d.vrespOK && d.local
				if err := c.SendFloats(d.parent, tagVResp, []float64{boolToFloat(ok), float64(d.curEpoch)}); err != nil {
					return false, err
				}
				d.vrespWait = nil
				// curEpoch stays set until STOP or RESUME arrives.
			}
		}
	}
	// Resume order for the wave we are in: clear verification state, forward
	// down. Resumes from rounds already abandoned here are discarded.
	if !d.isRoot() {
		if pk := c.TryRecv(d.parent, tagResume); pk != nil {
			epoch := pk.Floats[0]
			c.Release(pk)
			if int(epoch) == d.curEpoch {
				d.curEpoch = -1
				d.vrespWait = nil
				for _, ch := range d.children {
					if err := c.SendFloats(ch, tagResume, []float64{epoch}); err != nil {
						return false, err
					}
				}
			}
		}
	}

	// Push subtree state changes toward the root.
	st := boolToFloat(d.subtreeOK())
	if !d.isRoot() && st != d.lastSent {
		if err := c.SendFloats(d.parent, tagState, []float64{st}); err != nil {
			return false, err
		}
		d.lastSent = st
	}
	// Root launches a verification wave when its subtree looks converged.
	if d.isRoot() && !d.verifying && d.subtreeOK() {
		d.verifying = true
		d.epoch++
		d.vrespWait = map[int]bool{}
		d.vrespOK = true
		for _, ch := range d.children {
			d.vrespWait[ch] = true
			if err := c.SendFloats(ch, tagVerify, []float64{float64(d.epoch)}); err != nil {
				return false, err
			}
		}
	}
	return false, nil
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
