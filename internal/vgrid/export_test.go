package vgrid

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// Engine knobs and read-outs that only this package's tests use.

// recordString renders everything a recorder holds one item a line: every
// span in export order, every sample and every counter total, with %+v so
// each float keeps all of its bits. Two runs agree on their obs record
// exactly when the strings are equal.
func recordString(rec *obs.Recorder) string {
	var sb strings.Builder
	for _, s := range rec.Spans() {
		fmt.Fprintf(&sb, "%+v\n", s)
	}
	for _, s := range rec.Samples() {
		fmt.Fprintf(&sb, "%+v\n", s)
	}
	for _, c := range rec.Counters() {
		fmt.Fprintf(&sb, "%+v\n", c)
	}
	return sb.String()
}

// SetPoolCheck arms (or disarms) the float-pool ownership guard: every
// PutFloats is checked against the set of buffers already in a pool —
// a double put panics immediately instead of corrupting a later message —
// and returned buffers are poisoned with NaNs so a use-after-put surfaces
// in the numerics. The check costs a mutex and a map operation per pool
// call, so it is off by default; tests and debugging runs turn it on.
// Must be called before Run.
func (e *Engine) SetPoolCheck(on bool) {
	if e.started {
		panic("vgrid: SetPoolCheck after Run")
	}
	e.poolCheck = on
	if on && e.poolOut == nil {
		e.poolOut = make(map[*float64]bool)
	}
}

// SetLookahead overrides the platform-derived safe-window lookahead: the
// minimum virtual delay of any inter-lane message. Use it when the
// platform's representative-route estimate (minimum inter-cluster route
// latency over first-host pairs) overestimates an actual route — the
// engine panics mid-run if a cross-lane message ever arrives below the
// current window horizon. Must be called before Run; 0 restores the
// derived bound.
func (e *Engine) SetLookahead(l float64) {
	if e.started {
		panic("vgrid: SetLookahead after Run")
	}
	if l < 0 {
		panic("vgrid: negative lookahead")
	}
	e.lookaheadOverride = l
}

// Errors returns the per-process errors after Run (nil entries for success).
func (e *Engine) Errors() []error {
	errs := make([]error, len(e.procs))
	for i, p := range e.procs {
		errs[i] = p.err
	}
	return errs
}
