package core

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/vgrid"
)

// balancedStarts partitions n unknowns into k bands per host proportionally
// to the hosts' compute speed, so that on heterogeneous clusters (the paper's
// cluster2/cluster3) every processor's band solve costs roughly the same
// wall time per iteration. Under the cyclic assignment band b runs on
// hosts[b mod P] and is weighted by its speed. The returned starts slice
// feeds NewDecompositionFromStarts. Every band gets at least one row. The
// partitioning math itself lives in adapt.StartsFromWeights, shared with the
// online resplit controller (which feeds observed effective speeds instead
// of nameplate ones).
func balancedStarts(n int, hosts []*vgrid.Host, k int) ([]int, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("core: no hosts to balance over")
	}
	w := make([]float64, len(hosts)*k)
	for b := range w {
		h := hosts[b%len(hosts)]
		if h.Speed <= 0 {
			return nil, fmt.Errorf("core: host %s has non-positive speed", h.Name)
		}
		w[b] = h.Speed
	}
	starts, err := adapt.StartsFromWeights(n, w)
	if err != nil {
		return nil, fmt.Errorf("core: balance failed: %w", err)
	}
	return starts, nil
}
