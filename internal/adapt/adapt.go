// Package adapt closes the control loop between the windowed telemetry of
// internal/obs and the decomposition of internal/core: a deterministic
// feedback controller that resizes the multisplitting bands and the overlap
// width online, from committed per-window measurements only.
//
// The package is deliberately dependency-light (sparse only, never core), so
// the solver core can import it: core's speed-balanced decomposition
// (Options.Balance) delegates its partitioning math to StartsFromWeights, and
// the engine's resplit epochs feed Controller with per-rank window
// observations gathered through ordinary simulator messages. Everything here is a pure function of
// its inputs — no clocks, no randomness — which is what keeps adaptive runs
// byte-identical for any worker or lane count.
package adapt

import (
	"fmt"
	"math"
)

// StartsFromWeights partitions n unknowns into len(w) contiguous bands with
// sizes proportional to the nonnegative weights w, returning the partition
// boundaries (len(w)+1 values: starts[0]=0, starts[len(w)]=n, strictly
// increasing). Every band gets at least one row, so n must be at least
// len(w). This is the shared weights→starts helper behind core's
// Options.Balance (weights = host speeds) and the resplit controller
// (weights = observed effective speeds).
func StartsFromWeights(n int, w []float64) ([]int, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("adapt: no weights to partition over")
	}
	if n < len(w) {
		return nil, fmt.Errorf("adapt: cannot split %d unknowns into %d bands", n, len(w))
	}
	total := 0.0
	for i, wi := range w {
		if wi <= 0 || math.IsInf(wi, 0) || math.IsNaN(wi) {
			return nil, fmt.Errorf("adapt: weight %d is %v, want positive and finite", i, wi)
		}
		total += wi
	}
	starts := make([]int, len(w)+1)
	acc := 0.0
	for i, wi := range w {
		acc += wi
		starts[i+1] = int(acc / total * float64(n))
	}
	starts[len(w)] = n
	// Enforce non-empty bands (tiny n or extreme ratios can collapse one):
	// a forward pass pushes empty bands right, then a backward pass pulls
	// boundaries that overshot n back down. Because n ≥ len(w) the two
	// passes always terminate with a strictly increasing cover of [0, n].
	for i := 1; i <= len(w); i++ {
		if starts[i] <= starts[i-1] {
			starts[i] = starts[i-1] + 1
		}
	}
	starts[len(w)] = n
	for i := len(w) - 1; i >= 1; i-- {
		if starts[i] >= starts[i+1] {
			starts[i] = starts[i+1] - 1
		}
	}
	if starts[0] != 0 || starts[1] <= 0 {
		return nil, fmt.Errorf("adapt: partition failed: %v", starts)
	}
	return starts, nil
}

// Observation is one rank's committed measurement window, the controller's
// only online input. The rebalancing signal is the stretch ratio
// Busy/Nominal: Busy is clock time inside compute segments, Nominal the same
// segments at the host's nameplate rate. On a healthy host the two are
// equal; under a fault-plan slowdown or outage Busy grows while Nominal does
// not, and the ratio is exactly the degradation factor. Using the ratio
// rather than rows-per-busy-second keeps the controller blind to per-band
// structural cost differences (fill, dependency width), which are properties
// of the current split, not of the host — chasing them would thrash.
type Observation struct {
	// Rank is the observed rank.
	Rank int
	// Rows is the number of rows the rank's band currently owns.
	Rows int
	// Busy is the clock time spent inside compute segments this window,
	// including fault-plan stalls.
	Busy float64
	// Nominal is the nameplate-rate time of the same compute segments
	// (flops / host speed). Zero means the window carries no speed
	// information and the controller keeps its prior estimate.
	Nominal float64
	// Speed is the host's nameplate compute rate (flops per second).
	Speed float64
	// Wait is the rest of the window's wall time (communication + blocking).
	Wait float64
}

// The overlap tuner's constants. highWait and lowWait bound the mean
// wait-share dead band: above highWait the ranks mostly wait on the exchange,
// so extra overlap rows ride under the communication for free and the overlap
// grows by one; below lowWait the run is compute-bound, the redundant rows
// cost real time, and the overlap shrinks by one. An overlap move costs a full
// refactorization, so the shrink threshold is deliberately deep — only a run
// whose exchange wait is negligible pays for it. maxOverlap caps the overlap
// the tuner may grow to.
const (
	highWait   = 0.85
	lowWait    = 0.02
	maxOverlap = 8
)

// Controller is the deterministic band-rebalancing policy: feed it one
// Observation per rank at every epoch and it proposes new partition starts
// (speed-proportional, with hysteresis) and an overlap width.
type Controller struct {
	// hysteresis is the minimal relative change of some band's owned size
	// (|Δrows|/rows) an accepted proposal must reach; smaller proposals are
	// discarded so measurement noise cannot cause resplit thrash.
	hysteresis float64
	// stretch is the degradation estimate per rank — the ratio of clock
	// time to nameplate time inside compute segments over the last usable
	// window, ≥ 1 on a loaded window, exactly 1 on a healthy host (zero
	// until the first usable window). The window measurement is committed
	// virtual-schedule state, so it is taken at face value: smoothing it
	// would turn one fault transition into a staircase of resplits, each
	// paying a full refactorization.
	stretch []float64
	// speed is the last reported nameplate rate per rank.
	speed []float64
}

// NewController returns a controller that proposes a new split only when
// some band's owned size would change by at least the fraction hysteresis.
func NewController(hysteresis float64) *Controller {
	return &Controller{hysteresis: hysteresis}
}

// Proposal is one epoch's accepted controller output.
type Proposal struct {
	// Starts is the proposed partition (len ranks+1), nil when the epoch
	// proposed no band change.
	Starts []int
	// Overlap is the proposed overlap width (always set).
	Overlap int
	// MaxDelta is the largest |Δrows| over the bands relative to the
	// current split (0 when Starts is nil).
	MaxDelta int
}

// Propose runs one controller epoch: given the current partition starts, the
// current overlap and one observation per rank, it returns the proposed
// partition/overlap and whether anything changed. The observations must be
// ordered by rank and cover every rank exactly once.
func (c *Controller) Propose(n int, curStarts []int, curOverlap int, obs []Observation) (Proposal, bool, error) {
	if len(curStarts) != len(obs)+1 {
		return Proposal{}, false, fmt.Errorf("adapt: %d observations for %d bands", len(obs), len(curStarts)-1)
	}
	if c.stretch == nil {
		c.stretch = make([]float64, len(obs))
		c.speed = make([]float64, len(obs))
	}
	// Degradation estimate = clock time per nameplate second over the last
	// window. Hysteresis, not smoothing, is the thrash guard: the estimate
	// follows a fault (and a recovery) in a single epoch, and sub-threshold
	// drift is discarded below.
	for i, o := range obs {
		if o.Nominal <= 0 || o.Busy <= 0 || o.Speed <= 0 {
			// A window with no committed compute (e.g. a host down the whole
			// epoch) carries no speed information; keep the prior estimate.
			continue
		}
		s := o.Busy / o.Nominal
		if s < 1 {
			s = 1
		}
		c.stretch[i] = s
		c.speed[i] = o.Speed
	}
	w := make([]float64, len(obs))
	for i, s := range c.stretch {
		if s <= 0 {
			// Not every rank has reported a usable window yet.
			return Proposal{Overlap: curOverlap}, false, nil
		}
		// Effective speed: the nameplate rate divided by the observed
		// degradation. Healthy ranks keep their nameplate weight exactly, so
		// a split that is already speed-proportional stays put.
		w[i] = c.speed[i] / s
	}
	starts, err := StartsFromWeights(n, w)
	if err != nil {
		return Proposal{}, false, err
	}
	p := Proposal{Overlap: c.proposeOverlap(curOverlap, obs)}
	maxDelta, maxRel := 0, 0.0
	for i := 0; i+1 < len(curStarts); i++ {
		cur := curStarts[i+1] - curStarts[i]
		next := starts[i+1] - starts[i]
		d := next - cur
		if d < 0 {
			d = -d
		}
		if d > maxDelta {
			maxDelta = d
		}
		if rel := float64(d) / float64(cur); rel > maxRel {
			maxRel = rel
		}
	}
	changed := false
	if maxRel >= c.hysteresis {
		p.Starts = starts
		p.MaxDelta = maxDelta
		changed = true
	}
	if p.Overlap != curOverlap {
		changed = true
	}
	return p, changed, nil
}

// proposeOverlap is the overlap tuner, steering the paper's
// convergence-vs-compute tradeoff by where the time actually goes: when the
// mean wait share of the epoch exceeds highWait the ranks are mostly blocked
// on the exchange, the redundant overlap rows compute under the
// communication for free, and a wider overlap buys convergence — grow by
// one (capped at maxOverlap). Below lowWait the run is compute-bound and
// every redundant row costs wall time — shrink by one. Inside the dead band
// nothing changes; the single-row steps and the wide band keep the tuner
// from oscillating.
func (c *Controller) proposeOverlap(cur int, obs []Observation) int {
	sum, cnt := 0.0, 0
	for _, o := range obs {
		if t := o.Busy + o.Wait; t > 0 {
			sum += o.Wait / t
			cnt++
		}
	}
	if cnt == 0 {
		return cur
	}
	mean := sum / float64(cnt)
	switch {
	case mean > highWait && cur < maxOverlap:
		return cur + 1
	case mean < lowWait && cur > 0:
		return cur - 1
	}
	return cur
}
