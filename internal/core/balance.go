package core

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/vgrid"
)

// BalancedStarts partitions n unknowns across the hosts proportionally to
// their compute speed, so that on heterogeneous clusters (the paper's
// cluster2/cluster3) every processor's band solve costs roughly the same
// wall time per iteration. The returned starts slice feeds
// NewDecompositionFromStarts. Every band gets at least one row. The
// partitioning math itself lives in adapt.StartsFromWeights, shared with the
// online resplit controller (which feeds observed effective speeds instead
// of nameplate ones).
func BalancedStarts(n int, hosts []*vgrid.Host) ([]int, error) {
	return balancedStarts(n, hosts, 1)
}

// balancedStarts is BalancedStarts for k bands per host under the cyclic
// assignment: band b runs on hosts[b mod P] and is weighted by its speed.
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
