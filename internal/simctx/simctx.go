// Package simctx defines the per-process solver context threaded through the
// distributed drivers (core, dslu) and their substrates (mp, splu): a flop
// counter with its charged watermark, an optional memory accountant and an
// optional observability scope, so that several simulated processes — and,
// under the parallel vgrid scheduler, several OS threads — can run without
// sharing mutable state.
//
// Ownership contract: every simulated process builds exactly one Ctx and is
// its sole writer, mirroring vec.Counter's single-owner rule. Cross-process
// aggregation goes through vec.Total (the atomic merge point), never by
// sharing a Ctx.
package simctx

import (
	"repro/internal/obs"
	"repro/internal/vec"
)

// Allocator accounts memory against a capacity; *vgrid.Proc implements it.
type Allocator interface {
	// Alloc charges bytes against the capacity; it fails when the budget is
	// exhausted.
	Alloc(bytes int64) error
}

// Ctx carries one simulated process's accounting and observability.
type Ctx struct {
	// Counter accumulates the flops of every numerical kernel the process
	// runs. Single-owner: only this process (or the one compute segment it
	// has in flight) may touch it.
	Counter *vec.Counter
	// Charged is the watermark of Counter flops already converted into
	// virtual compute time. Work declared up front (mp.Comm.ComputeSeg)
	// advances it optimistically; mp.Comm.Charge reconciles any remainder.
	Charged float64
	// Mem, when non-nil, accounts allocations against the host capacity.
	Mem Allocator
	// Obs, when non-nil, receives solver-level observability data on the
	// virtual clock: factorization/iteration spans, residual samples, retry
	// counters. Nil means observability is off (zero overhead).
	Obs *obs.Scope
}

// New returns a Ctx with a fresh counter, no accountant and no scope.
func New() *Ctx {
	return &Ctx{Counter: &vec.Counter{}}
}

// Cnt returns the flop counter (nil-safe: a nil Ctx counts into the void,
// like a nil *vec.Counter).
func (c *Ctx) Cnt() *vec.Counter {
	if c == nil {
		return nil
	}
	return c.Counter
}

// Observe returns the observability scope (nil-safe: nil when the Ctx is nil
// or observability is off; a nil *obs.Scope is itself a valid no-op emitter).
func (c *Ctx) Observe() *obs.Scope {
	if c == nil {
		return nil
	}
	return c.Obs
}

// Alloc charges bytes to the memory accountant; a no-op without one.
func (c *Ctx) Alloc(bytes int64) error {
	if c == nil || c.Mem == nil {
		return nil
	}
	return c.Mem.Alloc(bytes)
}
