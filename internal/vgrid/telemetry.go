// Lane-level scheduler telemetry for sharded runs. The windowed obs layer
// (internal/obs) deliberately excludes everything lane-shaped: safe-window
// counts, WAN-turn serialization and inbox depths legitimately differ
// between lane counts, so routing them through the recorder would break the
// byte-identity contract of the deterministic exports. Instead the window
// coordinator accumulates them engine-side, bucketed on the virtual clock,
// and exposes them through a separate accessor — a diagnostics channel, not
// part of the deterministic artifact set.
package vgrid

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// LaneWindowStat is one virtual-time bucket of the sharded coordinator's
// telemetry: how the safe-window machinery behaved while the global clock
// was inside [W*width, (W+1)*width).
type LaneWindowStat struct {
	// W is the bucket index.
	W int `json:"w"`
	// Start is the bucket's first instant (W*width).
	Start float64 `json:"start"`
	// Windows is the number of safe windows opened in the bucket.
	Windows int64 `json:"windows"`
	// LaneOpens is the number of lane resumptions across those windows; the
	// mean safe-window occupancy is LaneOpens / (Windows * lane count).
	LaneOpens int64 `json:"lane_opens"`
	// Occupancy is the derived mean fraction of lanes with work below the
	// horizon per window (filled in by LaneTelemetry).
	Occupancy float64 `json:"occupancy"`
	// WanTurns is the number of serialized WAN turns granted in the bucket.
	WanTurns int64 `json:"wan_turns"`
	// WanQueue is the summed pending-request queue depth at each grant
	// (including the granted request); WanQueue/WanTurns is the mean
	// contention for the serialized turn.
	WanQueue int64 `json:"wan_queue"`
	// WanGrantWait is the summed virtual-time headroom (window horizon minus
	// request send time) over the grants — how far from the window edge the
	// serialized turns ran.
	WanGrantWait float64 `json:"wan_grant_wait"`
	// InboxDepth is the number of cross-lane messages applied at the
	// bucket's window barriers.
	InboxDepth int64 `json:"inbox_depth"`
}

// SetLaneTelemetry enables lane-level scheduler telemetry on a sharded run,
// bucketed into virtual-time windows of the given width; 0 disables (the
// default). The data is collected by the window coordinator with zero
// cross-goroutine traffic and is intentionally kept out of the obs recorder:
// it is lane-count-dependent by nature, unlike the deterministic exports.
// Must be called before Run.
func (e *Engine) SetLaneTelemetry(width float64) {
	if e.started {
		panic("vgrid: SetLaneTelemetry after Run")
	}
	if width < 0 {
		panic("vgrid: negative lane-telemetry width")
	}
	e.laneStatWidth = width
}

// laneStatAt returns (creating on demand) the telemetry bucket containing
// virtual time t, or nil when telemetry is off. Coordinator-only state.
func (e *Engine) laneStatAt(t float64) *LaneWindowStat {
	if e.laneStatWidth <= 0 {
		return nil
	}
	w := int(t / e.laneStatWidth)
	if w < 0 {
		w = 0
	}
	s := e.laneStats[w]
	if s == nil {
		if e.laneStats == nil {
			e.laneStats = map[int]*LaneWindowStat{}
		}
		s = &LaneWindowStat{W: w, Start: float64(w) * e.laneStatWidth}
		e.laneStats[w] = s
	}
	return s
}

// LaneTelemetry returns the sharded run's per-bucket scheduler telemetry
// sorted by bucket, with the derived occupancy filled in. Empty unless
// SetLaneTelemetry enabled collection and the run actually sharded (a
// single-lane run has no window coordinator). Call after Run.
func (e *Engine) LaneTelemetry() []LaneWindowStat {
	out := make([]LaneWindowStat, 0, len(e.laneStats))
	nl := float64(len(e.lanes))
	for _, s := range e.laneStats {
		row := *s
		if s.Windows > 0 && nl > 0 {
			row.Occupancy = float64(s.LaneOpens) / (float64(s.Windows) * nl)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].W < out[j].W })
	return out
}

// WriteLaneTelemetryJSON writes lane telemetry rows as indented JSON.
func WriteLaneTelemetryJSON(w io.Writer, stats []LaneWindowStat) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(stats)
}

// FprintLaneTelemetry writes a compact summary of lane telemetry rows of the
// given bucket width, one line per bucket and at most maxRows of them.
func FprintLaneTelemetry(w io.Writer, stats []LaneWindowStat, width float64, maxRows int) {
	fmt.Fprintf(w, "lane telemetry: %d windows (width %g)\n", len(stats), width)
	for i, ls := range stats {
		if i == maxRows {
			fmt.Fprintf(w, "  ... %d more windows\n", len(stats)-i)
			break
		}
		fmt.Fprintf(w, "  w%-3d occupancy %.3f  wan-turns %d  grant-wait %.4fs  inbox %d\n",
			ls.W, ls.Occupancy, ls.WanTurns, ls.WanGrantWait, ls.InboxDepth)
	}
}
