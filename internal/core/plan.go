package core

import (
	"repro/internal/mp"
	"repro/internal/plan"
	"repro/internal/sparse"
)

// buildCommPlan builds the shared communication plan for the decomposition
// mapped cyclically onto nranks processes (rank r owns bands r, r+P, r+2P…;
// with one band per rank the map is the identity; rankState.bandOf inverts
// it). The segment construction lives in exactly one place (internal/plan).
func buildCommPlan(a *sparse.CSR, d *Decomposition, nranks int) (*plan.Plan, error) {
	bands := make([]plan.Band, d.L())
	for i, b := range d.Bands {
		bands[i] = plan.Band{Start: b.Start, End: b.End, Lo: b.Lo, Hi: b.Hi}
	}
	return plan.Build(a, plan.Spec{
		N:                d.N,
		Bands:            bands,
		NRanks:           nranks,
		Owner:            func(b int) int { return b % nranks },
		Contributors:     d.Contributors,
		ContributorsInto: d.ContributorsInto,
		Weight:           d.Weight,
	})
}

// rankClusters returns each rank's cluster index, or nil when the platform
// declares no clusters for the communicator's hosts (flat topology: the
// gateway and the two-level collectives fall back to the direct plan).
func rankClusters(c *mp.Comm) []int {
	out := make([]int, c.Size())
	any := false
	for r := range out {
		out[r] = c.PeerHost(r).ClusterIndex()
		if out[r] >= 0 {
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}
