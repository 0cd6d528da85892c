package vgrid

import (
	"fmt"
	"math"
)

// Cluster is a named group of hosts connected by a fast local network. The
// grouping is pure metadata: it does not create links or routes, it only
// lets the upper layers (collectives, gateway exchange, traffic accounting)
// tell cheap intra-cluster hops apart from expensive inter-cluster ones.
type Cluster struct {
	// Index is the cluster's position in the platform's declaration order.
	Index int
	// Name identifies the cluster in diagnostics and validation errors.
	Name string
	// Hosts lists the member hosts in declaration order.
	Hosts []*Host
}

// AddCluster declares a named cluster over the given hosts and returns it.
// Every host may belong to at most one cluster; declaring a host twice
// panics, like the other platform-construction errors.
func (pl *Platform) AddCluster(name string, hosts ...*Host) *Cluster {
	c := &Cluster{Index: len(pl.clusters), Name: name}
	for _, h := range hosts {
		if h.cluster >= 0 {
			panic(fmt.Sprintf("vgrid: host %s already in cluster %s", h.Name, pl.clusters[h.cluster].Name))
		}
		h.cluster = c.Index
		c.Hosts = append(c.Hosts, h)
	}
	pl.clusters = append(pl.clusters, c)
	return c
}

// Clusters returns the declared clusters in declaration order (nil for a
// flat platform).
func (pl *Platform) Clusters() []*Cluster { return pl.clusters }

// NumClusters returns how many clusters the platform declares.
func (pl *Platform) NumClusters() int { return len(pl.clusters) }

// SameCluster reports whether two hosts share a cluster. Two unassigned
// hosts count as sharing the (implicit) flat cluster, so on a platform with
// no declarations every transfer is intra-cluster.
func (pl *Platform) SameCluster(a, b *Host) bool {
	return a.cluster == b.cluster
}

// ValidateTopology checks the cluster declarations against the platform:
// with at least one cluster declared, every host must belong to exactly one
// cluster and every pair of hosts in different clusters must have a route
// (the WAN path the inter-cluster traffic will take). A flat platform (no
// clusters) is always valid. On a platform with a lazy resolver (SetRouter)
// one representative cross-cluster pair per cluster pair is resolved instead
// of enumerating all host pairs, keeping validation O(clusters²) for
// generated grids. The topology-aware layers call this before relying on
// the metadata.
func (pl *Platform) ValidateTopology() error {
	if len(pl.clusters) == 0 {
		return nil
	}
	for _, h := range pl.Hosts {
		if h.cluster < 0 {
			return fmt.Errorf("vgrid: host %s belongs to no cluster", h.Name)
		}
	}
	if pl.router != nil {
		for _, ca := range pl.clusters {
			for _, cb := range pl.clusters {
				if ca.Index >= cb.Index || len(ca.Hosts) == 0 || len(cb.Hosts) == 0 {
					continue
				}
				if _, err := pl.Route(ca.Hosts[0], cb.Hosts[0]); err != nil {
					return fmt.Errorf("vgrid: no inter-cluster route %s -> %s: %w", ca.Name, cb.Name, err)
				}
			}
		}
		return nil
	}
	for i, a := range pl.Hosts {
		for _, b := range pl.Hosts[i+1:] {
			if a.cluster == b.cluster {
				continue
			}
			if _, ok := pl.routes[pairKey(a, b)]; !ok {
				return fmt.Errorf("vgrid: no inter-cluster route %s (%s) -> %s (%s)",
					a.Name, pl.clusters[a.cluster].Name, b.Name, pl.clusters[b.cluster].Name)
			}
		}
	}
	return nil
}

// minInterClusterLatency measures the platform's inter-cluster lookahead:
// the smallest summed link latency over one representative route per
// ordered cluster pair (the first hosts of each cluster, the same
// representatives ValidateTopology resolves). Any cross-cluster message
// takes at least this long to arrive, which is exactly the safe-window
// width the sharded scheduler may advance a lane without hearing from the
// others. Returns +Inf when the platform has fewer than two non-empty
// clusters or a representative pair has no route — both mean sharding has
// no lookahead to exploit and the engine falls back to a single lane. A lazy
// router's answers are read, not memoized.
func (pl *Platform) minInterClusterLatency() float64 {
	min := math.Inf(1)
	for _, ca := range pl.clusters {
		for _, cb := range pl.clusters {
			if ca.Index == cb.Index || len(ca.Hosts) == 0 || len(cb.Hosts) == 0 {
				continue
			}
			a, b := ca.Hosts[0], cb.Hosts[0]
			links, ok := pl.routes[pairKey(a, b)]
			if !ok && pl.router != nil {
				links = pl.router(a, b)
				ok = links != nil
			}
			if !ok {
				return math.Inf(1)
			}
			lat := 0.0
			for _, l := range links {
				lat += l.Latency
			}
			if lat < min {
				min = lat
			}
		}
	}
	return min
}
