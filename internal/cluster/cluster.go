// Package cluster builds the simulated platforms matching the paper's three
// testbeds:
//
//   - cluster1: 20 homogeneous Pentium IV 2.6 GHz machines, 256 MB memory,
//     switched 100 Mb Ethernet;
//   - cluster2: 8 heterogeneous machines (P4 1.7–2.6 GHz), 512 MB, 100 Mb;
//   - cluster3: 10 heterogeneous machines on two sites (7 + 3), 100 Mb LANs
//     joined by 20 Mb Internet links with wide-area latency.
//
// Host speeds are effective sparse-kernel flop rates (not peak): a 2.6 GHz
// P4 running sparse LU with pointer chasing sustains on the order of
// 10⁸ flop/s, which is the calibration that puts the sequential cage10
// factorization in the paper's ~150 s range.
//
// Perturb adds the background traffic flows of the paper's Table 4.
package cluster

import (
	"fmt"
	"strings"

	"repro/internal/vgrid"
)

// Effective speeds (flop/s) for the Pentium IV range used in the paper.
const (
	SpeedP4_26 = 150e6 // 2.6 GHz
	SpeedP4_17 = 98e6  // 1.7 GHz
)

// Network parameters.
const (
	LanLatency   = 50e-6  // switched 100 Mb Ethernet
	LanBandwidth = 1.25e7 // 100 Mb/s in bytes/s
	WanLatency   = 5e-3   // inter-site Internet path
	WanBandwidth = 2.5e6  // 20 Mb/s in bytes/s
)

// Memory capacities (bytes usable for solver data).
const (
	Mem256 = 200 << 20 // 256 MB machine, OS overhead removed
	Mem512 = 420 << 20
)

// Platform bundles a built platform with its hosts and the inter-site link
// (nil for single-site clusters).
type Platform struct {
	*vgrid.Platform
	// Hosts lists the compute hosts in platform order.
	Hosts []*vgrid.Host
	// WAN is the shared inter-site link of cluster3 (nil otherwise).
	WAN *vgrid.Link
	// SiteOf[i] gives the site index of host i.
	SiteOf []int
}

// FairWAN switches the inter-site link to TCP-like fair bandwidth sharing
// (vgrid.SharingFair) instead of FIFO serialization, approximating how the
// paper's perturbing flows coexisted with solver traffic on a real Internet
// path. No-op on single-site platforms.
func (p *Platform) FairWAN() *Platform {
	if p.WAN != nil {
		p.WAN.Mode = vgrid.SharingFair
	}
	return p
}

// ScaleSpeed multiplies every host's effective flop rate by f and returns
// the platform. Experiments use it to preserve the paper's compute-to-
// communication ratio when matrix sizes are scaled down (factorization cost
// shrinks superlinearly with size while network latency does not).
func (p *Platform) ScaleSpeed(f float64) *Platform {
	if f <= 0 {
		panic("cluster: speed scale must be positive")
	}
	for _, h := range p.Hosts {
		h.Speed *= f
	}
	return p
}

// Names lists the built-in platforms ByName knows, in the paper's order.
var Names = []string{"cluster1", "cluster2", "cluster3"}

// ByName builds a built-in platform by its command-line name, without memory
// limits. procs is the machine count of cluster1 (1..20); cluster2 and
// cluster3 have the paper's fixed sizes and ignore it.
func ByName(name string, procs int) (*Platform, error) {
	switch name {
	case "cluster1":
		if procs < 1 || procs > 20 {
			return nil, fmt.Errorf("cluster1 has 1..20 machines, asked for %d", procs)
		}
		return Cluster1(procs, -1), nil
	case "cluster2":
		return Cluster2(-1), nil
	case "cluster3":
		return Cluster3(-1), nil
	}
	return nil, fmt.Errorf("unknown cluster %q (want %s)", name, strings.Join(Names, ", "))
}

// memory resolves a builder's memOverride against its default capacity: a
// positive override replaces it, 0 keeps it, a negative one disables limits.
func memory(def, override int64) int64 {
	switch {
	case override > 0:
		return override
	case override < 0:
		return 0
	}
	return def
}

// lanWire gives every host its own NIC; a route concatenates the two NICs
// (switched Ethernet: contention only at the endpoints).
func lanWire(pl *vgrid.Platform, hosts []*vgrid.Host) []*vgrid.Link {
	nics := make([]*vgrid.Link, len(hosts))
	for i := range hosts {
		nics[i] = vgrid.NewLink(fmt.Sprintf("nic-%s", hosts[i].Name), LanLatency/2, LanBandwidth)
	}
	for i := range hosts {
		for j := i + 1; j < len(hosts); j++ {
			pl.SetRoute(hosts[i], hosts[j], nics[i], nics[j])
		}
	}
	return nics
}

// Cluster1 builds the homogeneous 20-machine cluster (or its first n
// machines, 1 ≤ n ≤ 20). Memory accounting uses the 256 MB configuration;
// memOverride > 0 replaces it (0 keeps the default, < 0 disables limits).
func Cluster1(n int, memOverride int64) *Platform {
	if n < 1 || n > 20 {
		panic(fmt.Sprintf("cluster: cluster1 has 20 machines, asked for %d", n))
	}
	mem := memory(Mem256, memOverride)
	pl := vgrid.NewPlatform()
	hosts := make([]*vgrid.Host, n)
	sites := make([]int, n)
	for i := range hosts {
		hosts[i] = pl.AddHost(fmt.Sprintf("c1-%02d", i), SpeedP4_26, mem)
	}
	lanWire(pl, hosts)
	pl.AddCluster("site0", hosts...)
	return &Platform{Platform: pl, Hosts: hosts, SiteOf: sites}
}

// hetSpeeds interpolates the paper's P4 1.7–2.6 GHz range across n hosts.
func hetSpeeds(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		f := 0.0
		if n > 1 {
			f = float64(i) / float64(n-1)
		}
		out[i] = SpeedP4_17 + float64(f*(SpeedP4_26-SpeedP4_17))
	}
	return out
}

// Cluster2 builds the 8-machine heterogeneous local cluster. memOverride as
// in Cluster1 (default 512 MB machines).
func Cluster2(memOverride int64) *Platform {
	mem := memory(Mem512, memOverride)
	pl := vgrid.NewPlatform()
	speeds := hetSpeeds(8)
	hosts := make([]*vgrid.Host, 8)
	sites := make([]int, 8)
	for i := range hosts {
		hosts[i] = pl.AddHost(fmt.Sprintf("c2-%02d", i), speeds[i], mem)
	}
	lanWire(pl, hosts)
	pl.AddCluster("site0", hosts...)
	return &Platform{Platform: pl, Hosts: hosts, SiteOf: sites}
}

// Cluster3 builds the two-site heterogeneous grid: 7 machines on site 0 and
// 3 on site 1, LANs joined by a shared 20 Mb link. memOverride as above.
func Cluster3(memOverride int64) *Platform {
	mem := memory(Mem512, memOverride)
	pl := vgrid.NewPlatform()
	const n = 10
	speeds := hetSpeeds(n)
	hosts := make([]*vgrid.Host, n)
	sites := make([]int, n)
	nics := make([]*vgrid.Link, n)
	for i := range hosts {
		site := 0
		if i >= 7 {
			site = 1
		}
		sites[i] = site
		hosts[i] = pl.AddHost(fmt.Sprintf("c3-s%d-%02d", site, i), speeds[i], mem)
		nics[i] = vgrid.NewLink(fmt.Sprintf("nic-%s", hosts[i].Name), LanLatency/2, LanBandwidth)
	}
	wan := vgrid.NewLink("wan", WanLatency, WanBandwidth)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if sites[i] == sites[j] {
				pl.SetRoute(hosts[i], hosts[j], nics[i], nics[j])
			} else {
				pl.SetRoute(hosts[i], hosts[j], nics[i], wan, nics[j])
			}
		}
	}
	pl.AddCluster("site0", hosts[:7]...)
	pl.AddCluster("site1", hosts[7:]...)
	return &Platform{Platform: pl, Hosts: hosts, WAN: wan, SiteOf: sites}
}

// Perturb spawns `flows` background traffic flows across the platform's two
// sites (Table 4's "perturbing communications"): each flow repeatedly ships
// a large payload from a site-0 host to a site-1 host, saturating the shared
// WAN link, for as long as active() reports true (typically the solver's
// Pending.Running). The flows use dedicated endpoint hosts so they contend
// only for the WAN, exactly like third-party traffic.
func (p *Platform) Perturb(e *vgrid.Engine, flows int, active func() bool) {
	if p.WAN == nil {
		panic("cluster: Perturb needs a two-site platform")
	}
	if flows <= 0 {
		return
	}
	// Dedicated traffic endpoints wired through the shared WAN.
	src := p.AddHost("perturb-src", 1e9, 0)
	dst := p.AddHost("perturb-dst", 1e9, 0)
	srcNic := vgrid.NewLink("nic-perturb-src", LanLatency/2, LanBandwidth)
	dstNic := vgrid.NewLink("nic-perturb-dst", LanLatency/2, LanBandwidth)
	p.SetRoute(src, dst, srcNic, p.WAN, dstNic)

	const tagPerturb = 999
	const payload = 4 << 20 // 4 MB per shipment
	sink := e.Spawn(dst, "perturb-sink", func(pr *vgrid.Proc) error {
		for active() {
			pr.TryRecv(vgrid.AnySource, tagPerturb)
			pr.Sleep(0.05) // always advance the clock: never spin
		}
		return nil
	})
	for f := 0; f < flows; f++ {
		e.Spawn(src, fmt.Sprintf("perturb-%d", f), func(pr *vgrid.Proc) error {
			for active() {
				if err := pr.Send(sink, tagPerturb, nil, payload); err != nil {
					return err
				}
				pr.Sleep(0.01)
			}
			return nil
		})
	}
}
