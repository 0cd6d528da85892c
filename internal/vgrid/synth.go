// Synthetic platform generation: parameterized grids of heterogeneous
// clusters, built in O(hosts) with lazy routing. The paper's experiments
// hand-code three physical clusters; grid-scale runs (bench's grid1000_*
// workloads, the 10⁴–10⁵-host event core ROADMAP parks) need thousands of
// hosts, which only a generator can provide.

package vgrid

import "fmt"

// Default network characteristics of generated platforms, matching the
// paper-era grid fabric the hand-built clusters use: 100 Mb/s switched LAN
// inside a cluster, a shared 20 Mb/s WAN backbone between clusters.
const (
	// SynthSpeedBase is the mean host speed of a generated platform in
	// flop/s (the effective dgemv rate measured for the paper's Pentium 4
	// 2.6 GHz nodes).
	SynthSpeedBase = 150e6
	// SynthLanLatency is the per-NIC latency of a generated platform in
	// seconds (two NICs per intra-cluster route, 50 µs end to end).
	SynthLanLatency = 25e-6
	// SynthLanBandwidth is the NIC bandwidth in bytes/s (100 Mb/s).
	SynthLanBandwidth = 1.25e7
	// SynthWanLatency is the WAN backbone latency in seconds.
	SynthWanLatency = 5e-3
	// SynthWanBandwidth is the WAN backbone bandwidth in bytes/s (20 Mb/s).
	SynthWanBandwidth = 2.5e6
)

// synthU01 maps (seed, index) to a uniform value in [0, 1) with the same
// splitmix64-style finalizer the fault layer uses for message loss: host
// speeds are a pure function of the generator parameters, so the same call
// produces the same platform on every run.
func synthU01(seed int64, i int) float64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	// Rounded here: the division is a multiply by 2^-53, and a caller's
	// 2*u would otherwise fuse with it.
	return float64(float64(h>>11) / float64(1<<53))
}

// Synthetic generates a grid platform with the given number of compute
// hosts split into that many clusters — LAN islands joined by a shared WAN
// backbone, the same shape as the hand-built cluster3 grid, at any scale.
// Host i runs at
// SynthSpeedBase × (1 + heterogeneity × u) with u drawn uniformly from
// [−1, 1) by a seeded hash, so heterogeneity 0 is a homogeneous grid and
// 0.5 spreads speeds over ±50%; the same (hosts, clusters, heterogeneity,
// seed) always generates the identical platform. Hosts are assigned to
// clusters in contiguous blocks of near-equal size.
//
// Construction is O(hosts): each host gets a NIC link, each cluster an
// uplink, and routes materialize lazily per communicating pair via
// SetRouter (intra-cluster a→nicA→nicB→b, inter-cluster through the
// cluster uplinks and the shared WAN — the per-host NICs carry only
// intra-cluster traffic, so every link is either cluster-local or global
// and the platform shards cleanly into per-cluster scheduler lanes), so a
// 1000-host grid costs ~2000 links instead of ~10⁶ precomputed routes.
// Memory is unlimited; use the returned platform's hosts directly to
// impose budgets.
func Synthetic(hosts, clusters int, heterogeneity float64, seed int64) *Platform {
	if hosts < 1 {
		panic("vgrid: Synthetic needs at least one host")
	}
	if clusters < 1 || clusters > hosts {
		panic(fmt.Sprintf("vgrid: Synthetic cluster count %d outside [1, %d]", clusters, hosts))
	}
	if heterogeneity < 0 || heterogeneity >= 1 {
		panic(fmt.Sprintf("vgrid: Synthetic heterogeneity %g outside [0, 1)", heterogeneity))
	}
	pl := NewPlatform()
	nics := make([]*Link, hosts)
	ups := make([]*Link, clusters)
	for i := 0; i < hosts; i++ {
		u := float64(2*synthU01(seed, i)) - 1
		speed := SynthSpeedBase * (1 + float64(heterogeneity*u))
		pl.AddHost(fmt.Sprintf("g%d", i), speed, 0)
		nics[i] = NewLink(fmt.Sprintf("nic-g%d", i), SynthLanLatency, SynthLanBandwidth)
	}
	for c := 0; c < clusters; c++ {
		lo, hi := c*hosts/clusters, (c+1)*hosts/clusters
		pl.AddCluster(fmt.Sprintf("site%d", c), pl.Hosts[lo:hi]...)
		ups[c] = NewLink(fmt.Sprintf("up-site%d", c), SynthWanLatency/2, SynthWanBandwidth)
	}
	wan := NewLink("wan", SynthWanLatency, SynthWanBandwidth)
	pl.AddLinks(nics...)
	pl.AddLinks(ups...)
	pl.AddLinks(wan)
	pl.SetRouter(func(a, b *Host) []*Link {
		if a.cluster == b.cluster {
			return []*Link{nics[a.ID], nics[b.ID]}
		}
		return []*Link{ups[a.cluster], wan, ups[b.cluster]}
	})
	return pl
}
