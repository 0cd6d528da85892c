package main

import (
	"cmp"
	"fmt"
	"io"
	"slices"
)

// minCompareRuns is the fewest runs per side from which a verdict is drawn:
// below three the quartiles are the extremes and the spread means nothing.
const minCompareRuns = 3

// virtSeedBound is how much worse virt_makespan_s may be on any one seed. It
// repeats exactly on a seed, so -compare holds it seed by seed and far
// tighter than the bound on a median across seeds could.
const virtSeedBound = 0.01

// side is one result file's runs of one workload, for one metric, in seed
// order.
type side struct {
	vals        []float64
	q1, med, q3 float64
}

// newSide summarises a metric over the untraced runs of a workload.
func newSide(runs []*runResult, metric string) side {
	var s side
	for _, r := range runs {
		s.vals = append(s.vals, r.Metrics[metric].Value)
	}
	s.q1, s.med, s.q3 = quartiles(s.vals)
	return s
}

func (s side) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.med
}

func (s side) min() float64 { return slices.Min(s.vals) }
func (s side) max() float64 { return slices.Max(s.vals) }

// verdict applies the benchmark's bound to two sides of one metric:
// "unresolved" with fewer than minCompareRuns runs on a side, or when either
// side's spread is wider than the bound and the runs overlap; else
// "worse"/"better" when the new median is off the old by more than the
// bound, else "same".
func verdict(d metricDef, old, new side) string {
	if len(old.vals) < minCompareRuns || len(new.vals) < minCompareRuns || old.med == 0 {
		return "unresolved"
	}
	worse := (new.med - old.med) / old.med
	if d.Better == "higher" {
		worse = -worse
	}
	overlap := new.min() <= old.max() && old.min() <= new.max()
	switch {
	case (old.spread() > d.Bound || new.spread() > d.Bound) && overlap:
		return "unresolved"
	case worse > d.Bound:
		return "worse"
	case worse < -d.Bound:
		return "better"
	}
	return "same"
}

// seedVerdict compares a lower-is-better metric that repeats exactly on a
// seed, run by run (both sides hold the same seeds in the same order):
// "worse" when any seed reads more than bound above the old value, else
// "better" when any reads more than bound below it, else "same". It also
// returns how many seeds differ at all.
func seedVerdict(old, new side, bound float64) (v string, differ int) {
	v = "same"
	for i, o := range old.vals {
		n := new.vals[i]
		if n != o {
			differ++
		}
		switch {
		case n > o*(1+bound):
			v = "worse"
		case n < o*(1-bound) && v != "worse":
			v = "better"
		}
	}
	return v, differ
}

// untracedByWorkload groups a file's end-to-end runs by workload, each group
// in seed order.
func untracedByWorkload(f *resultFile) map[string][]*runResult {
	m := map[string][]*runResult{}
	for _, r := range f.Runs {
		if !r.Trace {
			m[r.Workload] = append(m[r.Workload], r)
		}
	}
	for _, runs := range m {
		slices.SortStableFunc(runs, func(a, b *runResult) int { return cmp.Compare(a.Seed, b.Seed) })
	}
	return m
}

func seeds(runs []*runResult) []int64 {
	s := make([]int64, len(runs))
	for i, r := range runs {
		s[i] = r.Seed
	}
	return s
}

func failedShare(runs []*runResult) float64 {
	failed, attempted := 0, 0
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles prints one row per workload and end-to-end metric, each ratio
// with its base, and reports whether nothing got worse: no "worse" verdict,
// no workload with a higher failed share, and no workload that only one of
// the files has. Files measured differently (run length, or a workload's
// seeds) are not comparable: that is an error.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	oldF, err := readResultFile(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readResultFile(newPath)
	if err != nil {
		return false, err
	}
	if oldF.Meta.Seconds != newF.Meta.Seconds {
		return false, fmt.Errorf("not comparable: runs of %g s in %s, of %g s in %s", oldF.Meta.Seconds, oldPath, newF.Meta.Seconds, newPath)
	}
	oldRuns, newRuns := untracedByWorkload(oldF), untracedByWorkload(newF)
	for _, wl := range workloads {
		o, n := oldRuns[wl.name], newRuns[wl.name]
		if len(o) > 0 && len(n) > 0 && !slices.Equal(seeds(o), seeds(n)) {
			return false, fmt.Errorf("not comparable: %s ran on seeds %v in %s, on %v in %s", wl.name, seeds(o), oldPath, seeds(n), newPath)
		}
	}

	fmt.Fprintf(w, "old: %s (commit %s)\nnew: %s (commit %s)\n\n", oldPath, oldF.Meta.Commit, newPath, newF.Meta.Commit)
	const row = "%-22s %-17s %12.6g %25s %3d %12.6g %25s %3d  %-18s %s\n"
	fmt.Fprintf(w, "%-22s %-17s %12s %25s %3s %12s %25s %3s  %-18s %s\n",
		"workload", "metric", "old median", "old quartiles", "n", "new median", "new quartiles", "n", "new/old", "verdict")
	ok := true
	for _, wl := range workloads {
		o, n := oldRuns[wl.name], newRuns[wl.name]
		if len(o) == 0 && len(n) == 0 {
			continue
		}
		if len(o) == 0 || len(n) == 0 {
			ok = false
			fmt.Fprintf(w, "%-22s only one of the files has it (%d runs old, %d new): worse\n", wl.name, len(o), len(n))
			continue
		}
		for _, d := range endToEnd {
			so, sn := newSide(o, d.Name), newSide(n, d.Name)
			v, note := verdict(d, so, sn), fmt.Sprintf("bound %.0f%%", 100*d.Bound)
			if d.Name == "virt_makespan_s" {
				var differ int
				v, differ = seedVerdict(so, sn, virtSeedBound)
				note = fmt.Sprintf("%d of %d seeds differ; bound %.0f%% on each", differ, len(so.vals), 100*virtSeedBound)
			}
			ok = ok && v != "worse"
			ratio := "-"
			if so.med != 0 {
				ratio = fmt.Sprintf("%.4f of %.5g", sn.med/so.med, so.med)
			}
			fmt.Fprintf(w, row, wl.name, d.Name, so.med, fmt.Sprintf("%.5g .. %.5g", so.q1, so.q3), len(so.vals),
				sn.med, fmt.Sprintf("%.5g .. %.5g", sn.q1, sn.q3), len(sn.vals), ratio, v+" ("+note+")")
		}
		fo, fn := failedShare(o), failedShare(n)
		v := "same (bound 0%)"
		if fn > fo {
			v, ok = "worse (bound 0%)", false
		}
		fmt.Fprintf(w, row, wl.name, "failed_share", fo, "", len(o), fn, "", len(n), "-", v)
	}
	return ok, nil
}
