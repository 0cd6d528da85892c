// Command msexp regenerates the paper's experimental tables and figures on
// the simulated grid platforms.
//
// Usage:
//
//	msexp [-scale N] [-csv] [-quiet] [experiment ...]
//
// Experiments: table1 table2 table3 table4 figure3 faultsweep utilization
// windowed topology twostage adaptive (default: all), plus table4fair on
// request. A cell holds a verified virtual time or a verdict (nem, stall,
// dead, err, div, bad(r)); options a solver rejects outright fail the
// experiment with exit status 1. -scale divides the paper's matrix dimensions
// (default 16; 8 gives a closer, slower run; 1 is the paper's exact sizes,
// only practical for the generated banded matrices). -csv emits
// comma-separated values instead of aligned text (handy for plotting
// figure3). -fault-seed reseeds the deterministic fault injection of the
// faultsweep experiment. -workers and -lanes change only the host time of a
// run, never a table; an out-of-range -scale, -window, -workers, -lanes,
// -omega or -precond-band and an unknown -inner-schedule are exit status 2
// before anything runs. The runs of a table go side by side, at most
// GOMAXPROCS at a time (-workers bounds each run's compute pool, not that
// count), a run that needs an earlier run's outcome starting once that run
// has ended; the progress lines on stderr keep the order of a sequential
// run.
//
// The twostage experiment sweeps the two-stage solver's inner sweep count
// against the exact-band baseline on cluster3, then demonstrates the memory
// wall (a budget where only two-stage completes); -inner-schedule, -omega
// and -precond-band override its inner-solve parameters.
//
// The utilization experiment honours the observability flags: -trace-json
// PREFIX writes a Perfetto trace per run to PREFIX-<cluster>-<solver>.json,
// -metrics-out PREFIX writes PREFIX-<cluster>-<solver>.metrics.{json,csv},
// and -critical-path appends each run's top critical-path segments to the
// table's notes.
//
// The adaptive experiment compares the live decomposition (internal/adapt)
// against the static speed-balanced split on a windowed cluster2 host
// degradation, printing the resplit timeline; -adapt enables the live
// decomposition in the synchronous runs of the paper tables too, and
// -adapt-interval/-adapt-hysteresis override the controller parameters.
//
// The windowed experiment folds a clean and a degraded cluster2 solve into
// fixed virtual-time windows (internal/obs windowed telemetry): -window sets
// the window width, and -metrics-out PREFIX writes
// PREFIX-windowed-{clean,degraded}.windows.{json,csv} for cmd/msprof.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: it parses args, regenerates the requested
// experiments onto stdout and returns the exit status (0 ok, 1 an experiment
// failed, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 16, "divide the paper's matrix dimensions by this factor")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	plot := fs.Bool("plot", false, "render figure3 as an ASCII plot (in addition to the table)")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	workers := fs.Int("workers", 0, "worker threads of each run's compute pool (0 = GOMAXPROCS), not how many runs go side by side (at most GOMAXPROCS); results are identical for any value")
	lanes := fs.Int("lanes", 1, "scheduler lanes (0 = auto: one per cluster); results are identical for any value")
	faultSeed := fs.Int64("fault-seed", 0, "seed for the faultsweep experiment's fault injection (0 = fixed default)")
	traceJSON := fs.String("trace-json", "", "utilization: write a Perfetto trace per run to PREFIX-<cluster>-<solver>.json")
	metricsOut := fs.String("metrics-out", "", "utilization: write per-run metrics to PREFIX-<cluster>-<solver>.metrics.{json,csv}")
	critPath := fs.Bool("critical-path", false, "utilization: append each run's top critical-path segments to the table notes")
	window := fs.Float64("window", 0, "windowed: virtual-time window width in seconds for the windowed-utilization experiment (0 = auto: 1/8 of the clean makespan); with -metrics-out also writes PREFIX-windowed-{clean,degraded}.windows.{json,csv}")
	innerSched := fs.String("inner-schedule", "", "twostage: inner-sweep schedule (fixed, ramp or residual; empty = fixed)")
	omega := fs.Float64("omega", 0, "twostage: inner relaxation weight in (0, 2) (0 = default 1)")
	pcBand := fs.Int("precond-band", 0, "twostage: preconditioner half-bandwidth (0 = default 16)")
	adapt := fs.Bool("adapt", false, "enable the live decomposition (online band resplits) in the synchronous runs of the paper tables; each resplitting run logs a resplit summary on the progress stream")
	adaptInt := fs.Int("adapt-interval", 0, "iterations between adaptive controller epochs (0 = per-experiment default)")
	adaptHyst := fs.Float64("adapt-hysteresis", 0, "minimal relative band-size change an accepted resplit must reach (0 = per-experiment default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Config reads a value below its range as "use the default"; on the
	// command line it is a typo, and so are inner-solve parameters the
	// solver would reject only once the first rows have run.
	var bad error
	switch {
	case *scale < 1:
		bad = errors.New("-scale must be >= 1")
	case *window < 0:
		bad = errors.New("-window must be >= 0")
	case *lanes < 0:
		bad = errors.New("-lanes must be >= 0")
	case *workers < 0:
		bad = errors.New("-workers must be >= 0")
	default:
		bad = core.TwoStage{Schedule: *innerSched, Omega: *omega, PrecondBand: *pcBand}.Validate()
	}
	if bad != nil {
		fmt.Fprintln(stderr, "msexp:", bad)
		return 2
	}

	var progress io.Writer
	if !*quiet {
		progress = stderr
	}
	cfg := experiments.Config{
		Scale: *scale, Progress: progress, Workers: *workers, FaultSeed: *faultSeed,
		TraceJSON: *traceJSON, MetricsOut: *metricsOut, CriticalPath: *critPath, Window: *window,
		TwoStageSchedule: *innerSched, TwoStageOmega: *omega, TwoStagePrecondBand: *pcBand,
		Adapt: *adapt, AdaptInterval: *adaptInt, AdaptHysteresis: *adaptHyst,
	}
	if *lanes == 0 {
		cfg.Lanes = -1 // auto: one lane per cluster
	} else if *lanes > 1 {
		cfg.Lanes = *lanes
	}

	names := fs.Args()
	if len(names) == 0 {
		for _, e := range experiments.All() {
			names = append(names, e.Name)
		}
	}
	// Resolve every name before running the first: a typo costs nothing.
	exps := make([]func(experiments.Config) (*experiments.Table, error), len(names))
	for i, name := range names {
		exp, err := experiments.ByName(name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		exps[i] = exp
	}
	for i, name := range names {
		tab, err := exps[i](cfg)
		if err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", name, err)
			return 1
		}
		if *csv {
			err = tab.CSV(stdout)
		} else {
			err = tab.Fprint(stdout)
		}
		if err == nil && *plot && (name == "figure3" || name == "fig3") {
			err = experiments.PlotFigure3(stdout, tab)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}
