// Fault injection: a seeded, fully deterministic layer of host outages, link
// degradation windows and probabilistic message loss over the simulated
// platform. Faults are part of the virtual schedule — they charge the virtual
// clock, never the wall clock — so a faulted run is byte-for-byte reproducible
// for any worker count, exactly like a healthy one.

package vgrid

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// HostOutage is a crash/restart window for one host: every process on the
// host freezes during [From, Until) (work in progress pauses and resumes,
// the warm-restart model) and messages that would arrive while the host is
// down are lost. Use an infinite Until for a permanent crash.
type HostOutage struct {
	// Host names the affected host (Platform.AddHost name).
	Host string
	// From is the crash instant in virtual seconds.
	From float64
	// Until is the restart instant; math.Inf(1) means the host never
	// returns.
	Until float64
}

// HostSlowdown is a compute-degradation window for one host: during
// [From, Until) every flop charged on the host takes Factor times its
// nominal time (Factor 8 ≈ a thermally throttled or oversubscribed CPU
// running 8× slower). Unlike an outage the host stays up — it keeps sending,
// receiving and computing, just more slowly — which is exactly the
// heterogeneity drift the adaptive rebalancer (internal/adapt) exists to
// absorb. Overlapping windows compose multiplicatively.
type HostSlowdown struct {
	// Host names the affected host (Platform.AddHost name).
	Host string
	// From and Until bound the slowdown window in virtual seconds; an
	// infinite Until degrades the host for the rest of the run.
	From, Until float64
	// Factor multiplies the time any compute work takes (> 1 slows the
	// host down; values in (0, 1) would speed it up and are rejected).
	Factor float64
}

// LinkFault degrades one link during [From, Until): latency is multiplied by
// LatencyFactor, bandwidth by BandwidthFactor, and each message crossing the
// link is independently lost with probability Drop. A factor of 1 (or 0,
// treated as 1) leaves the corresponding quantity unchanged, so a rule can be
// pure degradation or pure loss.
type LinkFault struct {
	// Link names the affected link (NewLink name).
	Link string
	// From and Until bound the fault window in virtual seconds.
	From, Until float64
	// LatencyFactor multiplies the link latency (≥ 1 slows it down).
	LatencyFactor float64
	// BandwidthFactor multiplies the link bandwidth (≤ 1 slows it down).
	BandwidthFactor float64
	// Drop is the per-message loss probability in [0, 1].
	Drop float64
}

// FaultPlan is a deterministic schedule of faults to inject into an engine
// run (Engine.SetFaultPlan). The plan is static — every fault is declared
// before Run — and the loss of any individual message is a pure function of
// (Seed, link name, message sequence number), so the same plan produces the
// same faults, the same virtual schedule and the same obs record on every run,
// for any worker count.
type FaultPlan struct {
	// Seed drives the per-message loss decisions.
	Seed int64
	// Outages lists host crash/restart windows.
	Outages []HostOutage
	// Slowdowns lists host compute-degradation windows.
	Slowdowns []HostSlowdown
	// Links lists link degradation/loss windows.
	Links []LinkFault
}

// NewFaultPlan returns an empty plan with the given loss seed.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{Seed: seed}
}

// CrashHost schedules a crash of the named host at virtual time from, with a
// restart at until (pass math.Inf(1) for a permanent crash). It returns the
// plan for chaining.
func (fp *FaultPlan) CrashHost(host string, from, until float64) *FaultPlan {
	fp.Outages = append(fp.Outages, HostOutage{Host: host, From: from, Until: until})
	return fp
}

// DegradeHost makes every flop charged on the named host take factor times
// its nominal time during [from, until) (pass math.Inf(1) to degrade it for
// the rest of the run). It returns the plan for chaining.
func (fp *FaultPlan) DegradeHost(host string, from, until, factor float64) *FaultPlan {
	fp.Slowdowns = append(fp.Slowdowns, HostSlowdown{Host: host, From: from, Until: until, Factor: factor})
	return fp
}

// DegradeLink scales the named link's latency by latFactor and bandwidth by
// bwFactor during [from, until). It returns the plan for chaining.
func (fp *FaultPlan) DegradeLink(link string, from, until, latFactor, bwFactor float64) *FaultPlan {
	fp.Links = append(fp.Links, LinkFault{Link: link, From: from, Until: until,
		LatencyFactor: latFactor, BandwidthFactor: bwFactor})
	return fp
}

// DropOnLink loses each message crossing the named link during [from, until)
// independently with probability prob. It returns the plan for chaining.
func (fp *FaultPlan) DropOnLink(link string, from, until, prob float64) *FaultPlan {
	fp.Links = append(fp.Links, LinkFault{Link: link, From: from, Until: until, Drop: prob})
	return fp
}

// SetFaultPlan installs a fault plan on the engine; nil removes it. The plan
// is resolved against the platform (host and link names must exist) when Run
// starts. Must be called before Run. An installed plan with no outages and
// no link rules is exactly equivalent to no plan: the virtual schedule and
// the obs record are unchanged.
func (e *Engine) SetFaultPlan(fp *FaultPlan) {
	if e.started {
		panic("vgrid: SetFaultPlan after Run")
	}
	if fp == nil {
		e.faults = nil
		return
	}
	e.faults = &faultState{plan: fp}
}

// faultEvent is a plan milestone (crash or restart) recorded as an obs mark
// when the engine's high-water time passes it.
type faultEvent struct {
	time float64
	host string
	kind string // "crash", "restart", "degrade" or "recover"
}

// faultState is a fault plan resolved against a concrete platform.
type faultState struct {
	plan    *FaultPlan
	outages map[*Host][]HostOutage   // merged, sorted by From
	slow    map[*Host][]HostSlowdown // sorted by From, may overlap
	links   map[*Link][]LinkFault
	events  []faultEvent
	emitted int
}

// resolve binds the plan's host and link names to platform objects, merges
// overlapping outage windows and builds the sorted milestone schedule.
func (fs *faultState) resolve(pl *Platform) error {
	hostByName := map[string]*Host{}
	for _, h := range pl.Hosts {
		hostByName[h.Name] = h
	}
	linksByName := map[string][]*Link{}
	seen := map[*Link]bool{}
	for _, route := range pl.routes {
		for _, l := range route {
			if !seen[l] {
				seen[l] = true
				linksByName[l.Name] = append(linksByName[l.Name], l)
			}
		}
	}
	// Lazily-routed platforms (SetRouter) may have materialized no routes
	// yet; their links are declared via AddLinks.
	for _, l := range pl.extraLinks {
		if !seen[l] {
			seen[l] = true
			linksByName[l.Name] = append(linksByName[l.Name], l)
		}
	}

	fs.outages = map[*Host][]HostOutage{}
	for _, o := range fs.plan.Outages {
		h := hostByName[o.Host]
		if h == nil {
			return fmt.Errorf("vgrid: fault plan references unknown host %q", o.Host)
		}
		if !(o.From < o.Until) {
			return fmt.Errorf("vgrid: host %s outage window [%g, %g) is empty", o.Host, o.From, o.Until)
		}
		fs.outages[h] = append(fs.outages[h], o)
	}
	for h, ws := range fs.outages {
		fs.outages[h] = mergeOutages(ws)
		for _, w := range fs.outages[h] {
			fs.events = append(fs.events, faultEvent{time: w.From, host: h.Name, kind: "crash"})
			if !math.IsInf(w.Until, 1) {
				fs.events = append(fs.events, faultEvent{time: w.Until, host: h.Name, kind: "restart"})
			}
		}
	}

	fs.slow = map[*Host][]HostSlowdown{}
	for _, s := range fs.plan.Slowdowns {
		h := hostByName[s.Host]
		if h == nil {
			return fmt.Errorf("vgrid: fault plan references unknown host %q", s.Host)
		}
		if !(s.From < s.Until) {
			return fmt.Errorf("vgrid: host %s slowdown window [%g, %g) is empty", s.Host, s.From, s.Until)
		}
		if !(s.Factor >= 1) {
			return fmt.Errorf("vgrid: host %s slowdown factor %g must be ≥ 1", s.Host, s.Factor)
		}
		fs.slow[h] = append(fs.slow[h], s)
		fs.events = append(fs.events, faultEvent{time: s.From, host: h.Name, kind: "degrade"})
		if !math.IsInf(s.Until, 1) {
			fs.events = append(fs.events, faultEvent{time: s.Until, host: h.Name, kind: "recover"})
		}
	}
	for h := range fs.slow {
		ws := fs.slow[h]
		sort.Slice(ws, func(i, j int) bool { return ws[i].From < ws[j].From })
	}

	sort.Slice(fs.events, func(i, j int) bool {
		a, b := fs.events[i], fs.events[j]
		if a.time != b.time {
			return a.time < b.time
		}
		if a.host != b.host {
			return a.host < b.host
		}
		return a.kind < b.kind
	})

	fs.links = map[*Link][]LinkFault{}
	for _, lf := range fs.plan.Links {
		targets := linksByName[lf.Link]
		if len(targets) == 0 {
			return fmt.Errorf("vgrid: fault plan references unknown link %q", lf.Link)
		}
		if lf.Drop < 0 || lf.Drop > 1 {
			return fmt.Errorf("vgrid: link %s drop probability %g outside [0, 1]", lf.Link, lf.Drop)
		}
		if lf.LatencyFactor < 0 || lf.BandwidthFactor < 0 {
			return fmt.Errorf("vgrid: link %s has a negative degradation factor", lf.Link)
		}
		if !(lf.From < lf.Until) {
			return fmt.Errorf("vgrid: link %s fault window [%g, %g) is empty", lf.Link, lf.From, lf.Until)
		}
		for _, l := range targets {
			fs.links[l] = append(fs.links[l], lf)
		}
	}
	return nil
}

// mergeOutages sorts windows by start and coalesces overlaps, so wake and
// busyEnd can scan them in one forward pass.
func mergeOutages(ws []HostOutage) []HostOutage {
	sort.Slice(ws, func(i, j int) bool { return ws[i].From < ws[j].From })
	out := ws[:1]
	for _, w := range ws[1:] {
		last := &out[len(out)-1]
		if w.From <= last.Until {
			if w.Until > last.Until {
				last.Until = w.Until
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// down reports whether the host is inside an outage window at time t.
func (fs *faultState) down(h *Host, t float64) bool {
	for _, w := range fs.outages[h] {
		if t < w.From {
			return false
		}
		if t < w.Until {
			return true
		}
	}
	return false
}

// wake clamps t forward past any outage window of the host containing it:
// the earliest instant at or after t when the host is up (+Inf if the host
// never returns).
func (fs *faultState) wake(h *Host, t float64) float64 {
	for _, w := range fs.outages[h] {
		if t < w.From {
			return t
		}
		if t < w.Until {
			return w.Until
		}
	}
	return t
}

// workEnd returns the instant dt seconds of work started at t end on host h:
// t + dt without a fault plan (a nil receiver), busyEnd with one. A charge
// (Proc.chargeFlops) and a deferred segment's floor (Proc.ComputeDeferred)
// both go through it; it is small enough to inline, so a plan-free charge
// makes no call.
func (fs *faultState) workEnd(h *Host, t, dt float64) float64 {
	if fs == nil {
		return t + dt
	}
	return fs.busyEnd(h, t, dt)
}

// busyEnd returns the completion time of dt seconds of work started at t on
// the host, pausing across outage windows (the warm-restart model: work in
// flight freezes with the host and resumes where it left off) and stretching
// across slowdown windows (each second of work takes Factor clock seconds,
// factors of overlapping windows composing multiplicatively).
func (fs *faultState) busyEnd(h *Host, t, dt float64) float64 {
	if len(fs.slow[h]) == 0 {
		// Outage-only fast path: skip the boundary walk.
		rem := dt
		cur := t
		for _, w := range fs.outages[h] {
			if w.Until <= cur {
				continue
			}
			if up := w.From - cur; up > 0 {
				if rem <= up {
					return cur + rem
				}
				rem -= up
			}
			cur = w.Until
		}
		return cur + rem
	}
	rem := dt
	cur := t
	for rem > 0 {
		// Inside an outage the host is frozen: jump to the restart instant
		// (+Inf for a permanent crash, which also ends the walk below).
		if up := fs.wake(h, cur); up > cur {
			cur = up
			continue
		}
		f := fs.slowFactor(h, cur)
		nb := fs.nextBoundary(h, cur)
		if math.IsInf(nb, 1) {
			return cur + float64(rem*f)
		}
		if capacity := (nb - cur) / f; rem <= capacity {
			return cur + float64(rem*f)
		} else {
			rem -= capacity
		}
		cur = nb
	}
	return cur
}

// slowFactor is the product of the factors of every slowdown window active on
// the host at time t (1 when none is).
func (fs *faultState) slowFactor(h *Host, t float64) float64 {
	f := 1.0
	for _, s := range fs.slow[h] {
		if t >= s.From && t < s.Until {
			f *= s.Factor
		}
	}
	return f
}

// nextBoundary returns the earliest outage or slowdown window edge strictly
// after t on the host (+Inf when none remains). Between consecutive
// boundaries the host's effective compute rate is constant, which is what
// lets busyEnd walk segment by segment.
func (fs *faultState) nextBoundary(h *Host, t float64) float64 {
	nb := math.Inf(1)
	edge := func(x float64) {
		if x > t && x < nb {
			nb = x
		}
	}
	for _, w := range fs.outages[h] {
		edge(w.From)
		edge(w.Until)
	}
	for _, s := range fs.slow[h] {
		edge(s.From)
		edge(s.Until)
	}
	return nb
}

// linkFactors returns the combined latency and bandwidth multipliers for a
// transfer initiated on the link at time t. Factors of concurrently active
// rules compose multiplicatively; a zero factor in a rule means "unchanged".
func (fs *faultState) linkFactors(l *Link, t float64) (latF, bwF float64) {
	latF, bwF = 1, 1
	for _, r := range fs.links[l] {
		if t < r.From || t >= r.Until {
			continue
		}
		if r.LatencyFactor > 0 {
			latF *= r.LatencyFactor
		}
		if r.BandwidthFactor > 0 {
			bwF *= r.BandwidthFactor
		}
	}
	return latF, bwF
}

// dropProb returns the combined loss probability for a message initiated on
// the link at time t (independent rules compose as 1 − ∏(1 − pᵢ)).
func (fs *faultState) dropProb(l *Link, t float64) float64 {
	keep := 1.0
	for _, r := range fs.links[l] {
		if r.Drop > 0 && t >= r.From && t < r.Until {
			keep *= 1 - r.Drop
		}
	}
	return 1 - keep
}

// emit records every plan event with time ≤ now as a mark span and a counter
// in the observability recorder, in the fixed (time, host, kind) order.
// Deterministic: the engine's high-water time takes the same sequence of
// values for any worker count.
func (fs *faultState) emit(now float64, rec *obs.Recorder) {
	for fs.emitted < len(fs.events) && fs.events[fs.emitted].time <= now {
		ev := fs.events[fs.emitted]
		fs.emitted++
		rec.Span(obs.Span{Track: ev.host, Cat: obs.CatMark, Name: ev.kind,
			Start: ev.time, End: ev.time})
		rec.Count("fault_"+ev.kind, ev.host, 1)
	}
}

// dropU01 maps (seed, link name, message sequence number) to a uniform value
// in [0, 1) with a splitmix64-style finalizer. It is a pure function — the
// loss verdict of a message does not depend on scheduling order or on any
// prior random draw — which is what keeps faulted runs deterministic.
func dropU01(seed int64, link string, seq int64) float64 {
	h := uint64(seed) ^ 0xcbf29ce484222325
	for i := 0; i < len(link); i++ {
		h = (h ^ uint64(link[i])) * 1099511628211
	}
	h ^= uint64(seq) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}
