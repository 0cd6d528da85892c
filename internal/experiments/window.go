// The windowed-utilization experiment, the demonstration piece of the
// windowed telemetry layer (internal/obs: WindowAccum): it injects a mid-run
// WAN-class degradation and a host crash into a cluster2 solve and shows the
// per-window utilization trough that aggregate metrics average away.

package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/vgrid"
)

// runWindowed runs one fault-tolerant asynchronous multisplitting solve and
// folds it into virtual-time windows of the given width.
func runWindowed(cfg Config, plt *cluster.Platform, a *sparse.CSR, b []float64, plan *vgrid.FaultPlan, width float64) (cell, *obs.WindowedMetrics, error) {
	ex, err := obs.Export{Window: width}.Begin()
	if err != nil {
		return cell{}, nil, err
	}
	c, _, err := cfg.solve(plt, a, b, runSpec{
		opts: core.Options{Async: true, FaultTolerant: true}, plan: plan, rec: ex.Rec,
	})
	if err != nil {
		return c, nil, err
	}
	out, err := ex.Finish(c.end)
	if err != nil {
		return c, nil, err
	}
	return c, out.Windows, nil
}

// winMeans folds a windowed report into per-window host means and the byte
// count of one link of interest.
func winMeans(wm *obs.WindowedMetrics, link string) (util, wait, linkKB map[int]float64) {
	util = map[int]float64{}
	wait = map[int]float64{}
	linkKB = map[int]float64{}
	hosts := map[int]int{}
	for i := range wm.Hosts {
		h := &wm.Hosts[i]
		util[h.W] += h.Utilization
		wait[h.W] += h.WaitShare
		hosts[h.W]++
	}
	for w, n := range hosts {
		util[w] /= float64(n)
		wait[w] /= float64(n)
	}
	for i := range wm.Links {
		l := &wm.Links[i]
		if l.Link == link {
			// Converted, or the compiler fuses the add with the multiply
			// the division becomes on arm64, riscv64 and ppc64le.
			linkKB[l.W] += float64(l.Bytes / 1024)
		}
	}
	return util, wait, linkKB
}

// The cluster2 fault scenario: one host's NIC degrades sharply over the
// middle half of the run, and a second host crashes inside that window.
const (
	windowedDegradedLink = "nic-c2-06"
	windowedCrashedHost  = "c2-07"
)

// WindowedUtilization is the windowed-telemetry demonstration (an extension,
// not a paper table): the fault-tolerant asynchronous solver on cluster2
// with cage11, clean versus degraded (one NIC slowed 8x/8x and one host
// crashed over the middle of the run). The aggregate utilization of the two
// runs barely differs; the windowed series localizes the trough to the
// fault interval and shows the recovery afterwards.
func WindowedUtilization(cfg Config) (*Table, error) {
	a := Cage11Like(cfg)
	b, _ := gen.RHSForSolution(a)

	// Probe the clean makespan to place the fault windows and size the
	// telemetry windows relative to the run.
	cfg.logf("windowed: probing clean async run")
	probe, _, err := cfg.solve(cluster.Cluster2(-1), a, b, runSpec{opts: core.Options{Async: true, FaultTolerant: true}})
	if err != nil {
		return nil, err
	}
	if !probe.ok {
		return nil, fmt.Errorf("experiments: windowed clean probe failed (%s)", probe.note)
	}
	T := probe.time
	width := cfg.Window
	if width <= 0 {
		width = T / 8
	}
	degFrom, degUntil := 0.25*T, 0.75*T
	crashFrom, crashUntil := 0.40*T, 0.60*T

	t := &Table{
		ID: "Windowed utilization",
		Title: fmt.Sprintf("windowed telemetry on cluster2 under degradation, cage11-like matrix (n=%d, scale %d, window %.3fs)",
			a.Rows, cfg.scale(), width),
		Header: []string{"window", "interval", "util clean", "util degraded", "wait clean", "wait degraded", "KB on " + windowedDegradedLink},
		Notes: []string{
			fmt.Sprintf("degraded run: %s latency x8 / bandwidth /8 over [%.3fs, %.3fs), %s crashed over [%.3fs, %.3fs)",
				windowedDegradedLink, degFrom, degUntil, windowedCrashedHost, crashFrom, crashUntil),
			"windows accumulated from the batch spans feed (internal/obs); util/wait are host means per window",
		},
	}

	cfg.logf("windowed: clean run with telemetry")
	clean, cleanWM, err := runWindowed(cfg, cluster.Cluster2(-1), a, b, nil, width)
	if err != nil {
		return nil, err
	}
	cfg.logf("windowed: degraded run with telemetry")
	plan := vgrid.NewFaultPlan(faultSeed).
		DegradeLink(windowedDegradedLink, degFrom, degUntil, 8, 1.0/8).
		CrashHost(windowedCrashedHost, crashFrom, crashUntil)
	deg, degWM, err := runWindowed(cfg, cluster.Cluster2(-1), a, b, plan, width)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf("solve times: clean %s, degraded %s", clean.timeStr(), deg.timeStr()))

	cu, cw, _ := winMeans(cleanWM, windowedDegradedLink)
	du, dw, dl := winMeans(degWM, windowedDegradedLink)
	n := cleanWM.Windows
	if degWM.Windows > n {
		n = degWM.Windows
	}
	for w := 0; w < n; w++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(w),
			fmt.Sprintf("[%.3f, %.3f)", float64(w)*width, float64(w+1)*width),
			fmt.Sprintf("%.3f", cu[w]), fmt.Sprintf("%.3f", du[w]),
			fmt.Sprintf("%.3f", cw[w]), fmt.Sprintf("%.3f", dw[w]),
			fmt.Sprintf("%.1f", dl[w]),
		})
	}

	if cfg.MetricsOut != "" {
		for _, out := range []struct {
			key string
			wm  *obs.WindowedMetrics
		}{{"clean", cleanWM}, {"degraded", degWM}} {
			base := fmt.Sprintf("%s-windowed-%s", cfg.MetricsOut, out.key)
			if err := out.wm.WriteFiles(base); err != nil {
				return nil, err
			}
			cfg.logf("windowed: metrics written to %s.windows.{json,csv}", base)
		}
	}
	return t, nil
}
