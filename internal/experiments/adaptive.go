// The adaptive-decomposition experiment: the live decomposition (PR 10,
// internal/adapt) against the static speed-balanced split on the windowed
// cluster2 degradation scenario of the windowed-telemetry experiment. One
// host is slowed hard over the middle half of the run — the static split
// drags every lockstep iteration at the degraded host's pace for the whole
// window, while the controller resplits rows off the host when its stretch
// appears in the epoch observations and resplits back after the recovery.
// The crash of the windowed scenario is replaced by a slowdown: the
// synchronous lockstep the resplit protocol needs cannot lose a rank.

package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/vgrid"
)

// adaptiveDegradedHost is the host the fault plan slows: cluster2's fastest
// machine, so the static balanced split hands it the largest band.
const adaptiveDegradedHost = "c2-07"

// adaptiveSlowdown is the degradation factor over the fault window.
const adaptiveSlowdown = 8.0

// adaptiveMatrix returns the system the adaptive experiment solves: large
// and narrow-banded so the band solves dominate the LAN exchange and a row
// rebalance moves the makespan (n = 128000/scale).
func adaptiveMatrix(cfg Config) *sparse.CSR {
	return gen.DiagDominant(gen.DiagDominantOpts{
		N: 128000 / cfg.scale(), Band: 24, PerRow: 12, Margin: 0.002, Negative: true, Seed: 31,
	})
}

// adaptiveOptions is the solver configuration of both legs: synchronous,
// speed-balanced initial split, overlap at the controller's cap so the
// overlap tuner holds it. The adaptive leg turns the controller on, with an
// epoch every 5 iterations and a 5 % hysteresis.
func adaptiveOptions(adapt bool) core.Options {
	o := core.Options{Overlap: 8, Balance: true, Tol: 1e-10}
	if adapt {
		o.Adapt = true
		o.AdaptInterval = 5
		o.AdaptHysteresis = 0.05
	}
	return o
}

// Adaptive is the live-decomposition experiment (an extension, not a paper
// table): static versus adaptive makespan on the clean and the degraded
// cluster2 grid, with the resplit timeline of the degraded adaptive run in
// the notes.
func Adaptive(cfg Config) (*Table, error) {
	a := adaptiveMatrix(cfg)
	b, _ := gen.RHSForSolution(a)

	run := func(plan *vgrid.FaultPlan, adapt bool) (cell, *core.Result, error) {
		return cfg.solve(cluster.Cluster2(-1), a, b, runSpec{opts: adaptiveOptions(adapt), plan: plan})
	}

	// Probe the clean static makespan to place the degradation window the
	// way the windowed experiment does: over the middle half of the run.
	cfg.logf("adaptive: probing clean static run")
	probe, _, err := run(nil, false)
	if err != nil {
		return nil, err
	}
	if !probe.ok {
		return nil, fmt.Errorf("experiments: adaptive clean probe failed (%s)", probe.note)
	}
	// The fault window opens a quarter into the clean run, like the windowed
	// experiment's, but stays open for a full clean makespan: the degraded
	// static run stretches far past the clean one, and a window sized to the
	// clean run would close before the static leg had spent any real time
	// inside it.
	T := probe.time
	degFrom, degUntil := 0.25*T, 1.25*T
	plan := func() *vgrid.FaultPlan {
		return vgrid.NewFaultPlan(faultSeed).
			DegradeHost(adaptiveDegradedHost, degFrom, degUntil, adaptiveSlowdown)
	}

	t := &Table{
		ID: "Adaptive",
		Title: fmt.Sprintf("live decomposition vs static balanced split on cluster2, generated matrix (n=%d, scale %d)",
			a.Rows, cfg.scale()),
		Header: []string{"run", "split", "makespan", "iterations", "resplits", "rejected", "transition flops"},
		Notes: []string{
			fmt.Sprintf("degraded runs: %s slowed %gx over [%.3fs, %.3fs) — the windowed experiment's fault window with the crash replaced by a slowdown",
				adaptiveDegradedHost, adaptiveSlowdown, degFrom, degUntil),
		},
	}
	row := func(run string, adapt bool, c cell, res *core.Result) {
		split := "static"
		if adapt {
			split = "adaptive"
		}
		cells := []string{run, split, c.timeStr(), "-", "-", "-", "-"}
		if res != nil {
			cells[3] = fmt.Sprint(res.Iterations)
			cells[4] = fmt.Sprint(res.Resplits)
			cells[5] = fmt.Sprint(res.ResplitRejected)
			cells[6] = fmt.Sprintf("%.3g", res.ResplitFlops)
		}
		t.Rows = append(t.Rows, cells)
	}
	row("clean", false, probe, nil)
	cfg.logf("adaptive: clean adaptive run (controller must stay quiet)")
	ca, cares, err := run(nil, true)
	if err != nil {
		return nil, err
	}
	row("clean", true, ca, cares)
	cfg.logf("adaptive: degraded static run")
	ds, dsres, err := run(plan(), false)
	if err != nil {
		return nil, err
	}
	row("degraded", false, ds, dsres)
	cfg.logf("adaptive: degraded adaptive run")
	da, dares, err := run(plan(), true)
	if err != nil {
		return nil, err
	}
	row("degraded", true, da, dares)

	if ds.ok && da.ok {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"adaptive saves %.1f%% of the degraded makespan (%.4fs vs %.4fs)",
			100*(1-da.time/ds.time), da.time, ds.time))
	}
	for _, ev := range dares.ResplitEvents {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"resplit at iter %d (t=%.4fs): max band delta %d rows, overlap %d",
			ev.Iter, ev.Time, ev.MaxDelta, ev.Overlap))
	}
	return t, nil
}

// logResplits emits the per-run resplit summary line on the progress stream
// for every run that had a live controller.
func logResplits(cfg Config, res *core.Result) {
	if res == nil || res.Resplits+res.ResplitRejected == 0 {
		return
	}
	cfg.logf("  resplits: %d applied, %d rejected, %.3g transition flops", res.Resplits, res.ResplitRejected, res.ResplitFlops)
	for _, ev := range res.ResplitEvents {
		cfg.logf("    iter %d t=%.4fs: max band delta %d rows, overlap %d", ev.Iter, ev.Time, ev.MaxDelta, ev.Overlap)
	}
}
