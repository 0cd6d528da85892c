package mp

// Two-level topology-aware collectives. The flat collectives cross the
// inter-cluster links once per participating rank; on a grid platform
// those links are the bottleneck. The hierarchical algorithms here route
// every collective through per-cluster leaders: members talk to their
// leader over the LAN, only the leaders talk across clusters, so a
// collective costs O(#clusters) WAN crossings regardless of the rank count.
// Enabled per communicator with Comm.Topo; without usable cluster
// declarations the calls fall back to the flat algorithms in mp.go.

import "repro/internal/vgrid"

// topoInfo is the memoized cluster layout of a communicator's ranks.
type topoInfo struct {
	// leaderOf maps each rank to its cluster's leader, the cluster's lowest
	// rank (the aggregator of a relayed plan, plan.Relay).
	leaderOf []int
	// members lists the ranks of this rank's own cluster, ascending.
	members []int
	// leader is the leader of this rank's cluster.
	leader int
	// leaders lists the leaders, ascending; leaders[0] acts as the global
	// root of the leader exchange.
	leaders []int
	// held keeps a leader's received member records in hierGather until its
	// blob is sized; empty between calls.
	held []*vgrid.Message
}

// topo derives (once) the cluster layout from the ranks' hosts. It returns
// nil — disabling the hierarchical algorithms — when any rank's host has no
// cluster or when all ranks share a single cluster.
func (c *Comm) topo() *topoInfo {
	if c.topoDone {
		return c.topoCached
	}
	c.topoDone = true
	cl := make([]int, c.Size())
	ti := &topoInfo{leaderOf: make([]int, len(cl))}
	for r := range cl {
		if cl[r] = c.procs[r].Host().ClusterIndex(); cl[r] < 0 {
			return nil
		}
		ti.leaderOf[r] = r
		for _, l := range ti.leaders {
			if cl[l] == cl[r] {
				ti.leaderOf[r] = l
				break
			}
		}
		if ti.leaderOf[r] == r {
			ti.leaders = append(ti.leaders, r)
		}
	}
	if len(ti.leaders) < 2 {
		return nil
	}
	ti.leader = ti.leaderOf[c.rank]
	for r, l := range ti.leaderOf {
		if l == ti.leader {
			ti.members = append(ti.members, r)
		}
	}
	c.topoCached = ti
	return ti
}

// hierAllreduce reduces member values to each cluster leader over the LAN,
// combines the leader partials at leaders[0] over the WAN, and fans the
// result back out: leaders first, then each cluster's members. 2·(C−1) WAN
// messages for C clusters, independent of the rank count.
func (c *Comm) hierAllreduce(v float64, op Op, ti *topoInfo) (float64, error) {
	if c.rank != ti.leader {
		if err := c.xsend(c.procs[ti.leader], tagReduceIn, c.scalar(v), 8+msgOverheadBytes); err != nil {
			return 0, err
		}
		return c.takeScalar(c.recv(ti.leader, tagReduceOut)), nil
	}
	acc := v
	for _, r := range ti.members {
		if r == c.rank {
			continue
		}
		acc = op.apply(acc, c.takeScalar(c.recv(r, tagReduceIn)))
	}
	root := ti.leaders[0]
	if c.rank != root {
		if err := c.xsend(c.procs[root], tagReduceIn, c.scalar(acc), 8+msgOverheadBytes); err != nil {
			return 0, err
		}
		acc = c.takeScalar(c.recv(root, tagReduceOut))
	} else {
		for _, l := range ti.leaders[1:] {
			acc = op.apply(acc, c.takeScalar(c.recv(l, tagReduceIn)))
		}
		for _, l := range ti.leaders[1:] {
			if err := c.xsend(c.procs[l], tagReduceOut, c.scalar(acc), 8+msgOverheadBytes); err != nil {
				return 0, err
			}
		}
	}
	for _, r := range ti.members {
		if r == c.rank {
			continue
		}
		if err := c.xsend(c.procs[r], tagReduceOut, c.scalar(acc), 8+msgOverheadBytes); err != nil {
			return 0, err
		}
	}
	return acc, nil
}

// hierBcast routes a broadcast root → root's cluster leader → other leaders
// (WAN) → cluster members (LAN): C−1 WAN messages for C clusters.
func (c *Comm) hierBcast(root int, data []float64, ti *topoInfo) ([]float64, error) {
	rootLeader := ti.leaderOf[root]
	send := func(dst int) error {
		cp := c.p.GetFloats(len(data))
		copy(cp, data)
		return c.xsend(c.procs[dst], tagBcast, cp, 8*len(cp)+msgOverheadBytes)
	}
	if c.rank == root {
		if root != rootLeader {
			return data, send(rootLeader)
		}
	} else if c.rank == ti.leader {
		var from int
		if ti.leader == rootLeader {
			from = root // our own cluster's root hands the data up
		} else {
			from = rootLeader
		}
		m := c.recv(from, tagBcast)
		data = m.Floats
		c.p.ReleaseMessage(m)
	} else {
		m := c.recv(ti.leader, tagBcast)
		out := m.Floats
		c.p.ReleaseMessage(m)
		return out, nil
	}
	// Only leaders (including a root that is its cluster's leader) get here.
	if c.rank == rootLeader {
		for _, l := range ti.leaders {
			if l == rootLeader {
				continue
			}
			if err := send(l); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range ti.members {
		if r == c.rank || r == root {
			continue
		}
		if err := send(r); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// hierGather collects each rank's slice at its cluster leader over the LAN;
// every leader other than root packs its cluster's slices into one flat
// blob of [rank, len, values...] records and ships it to root over the WAN
// (C−1 crossings when root is a leader). Root slices the blobs' records —
// plus, when root leads a cluster, its members' raw slices — into the by-rank
// result, which owns the received buffers as the flat Gather's does.
func (c *Comm) hierGather(root int, data []float64, ti *topoInfo) ([][]float64, error) {
	if c.rank != root && c.rank != ti.leader {
		cp := c.p.GetFloats(len(data))
		copy(cp, data)
		return nil, c.xsend(c.procs[ti.leader], tagGather, cp, 8*len(cp)+msgOverheadBytes)
	}
	if c.rank == ti.leader && c.rank != root {
		// The members' records arrive first, so the blob is one pooled
		// buffer of its final size.
		held := ti.held[:0]
		size := 2 + len(data)
		for _, r := range ti.members {
			if r == c.rank || r == root {
				continue
			}
			m := c.recv(r, tagGather)
			held = append(held, m)
			size += 2 + len(m.Floats)
		}
		blob := append(c.p.GetFloats(size)[:0], float64(c.rank), float64(len(data)))
		blob = append(blob, data...)
		for _, m := range held {
			blob = append(blob, float64(c.rankOf(m)), float64(len(m.Floats)))
			blob = append(blob, m.Floats...)
			c.p.PutFloats(m.Floats)
			c.p.ReleaseMessage(m)
		}
		clear(held) // the envelopes are the pool's again
		ti.held = held[:0]
		return nil, c.xsend(c.procs[root], tagGatherHier, blob, 8*len(blob)+msgOverheadBytes)
	}
	// rank == root: own members' raw slices (when leading), then one blob
	// per other leader.
	out := make([][]float64, c.Size())
	out[root] = data
	if root == ti.leader {
		for _, r := range ti.members {
			if r == root {
				continue
			}
			m := c.recv(r, tagGather)
			out[r] = m.Floats
			c.p.ReleaseMessage(m)
		}
	}
	for _, l := range ti.leaders {
		if l == root {
			continue
		}
		m := c.recv(l, tagGatherHier)
		blob := m.Floats
		for i := 0; i < len(blob); {
			r, end := int(blob[i]), i+2+int(blob[i+1])
			out[r] = blob[i+2 : end : end]
			i = end
		}
		c.p.ReleaseMessage(m)
	}
	return out, nil
}
