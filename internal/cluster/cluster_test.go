package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/vgrid"
)

func TestCluster1Shape(t *testing.T) {
	p := Cluster1(20, 0)
	if len(p.Hosts) != 20 {
		t.Fatalf("hosts = %d", len(p.Hosts))
	}
	for _, h := range p.Hosts {
		if h.Speed != SpeedP4_26 {
			t.Fatalf("cluster1 host speed %v, want homogeneous %v", h.Speed, SpeedP4_26)
		}
		if h.Memory != Mem256 {
			t.Fatalf("cluster1 memory %d, want %d", h.Memory, Mem256)
		}
	}
	if _, err := p.Route(p.Hosts[0], p.Hosts[19]); err != nil {
		t.Fatal(err)
	}
}

func TestCluster1Bounds(t *testing.T) {
	for _, n := range []int{0, 21} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Cluster1(%d) accepted", n)
				}
			}()
			Cluster1(n, 0)
		}()
	}
}

// TestByName pins the platform table the commands share: every listed name
// builds its platform without memory limits, cluster1 alone sizes by procs,
// and a rejection says what would have been accepted.
func TestByName(t *testing.T) {
	for i, want := range []int{6, 8, 10} {
		p, err := ByName(Names[i], 6)
		if err != nil || len(p.Hosts) != want || p.Hosts[0].Memory != 0 {
			t.Errorf("ByName(%s, 6): %d hosts, err %v; want %d unlimited hosts", Names[i], len(p.Hosts), err, want)
		}
	}
	for _, procs := range []int{0, 21} {
		if _, err := ByName("cluster1", procs); err == nil || err.Error() != fmt.Sprintf("cluster1 has 1..20 machines, asked for %d", procs) {
			t.Errorf("ByName(cluster1, %d): %v", procs, err)
		}
	}
	if _, err := ByName("cluster2", 0); err != nil {
		t.Errorf("cluster2 has a fixed size, procs must not matter: %v", err)
	}
	if _, err := ByName("cluster4", 4); err == nil || err.Error() != `unknown cluster "cluster4" (want cluster1, cluster2, cluster3)` {
		t.Errorf("ByName(cluster4): %v", err)
	}
}

func TestMemoryOverrides(t *testing.T) {
	if p := Cluster1(2, 12345); p.Hosts[0].Memory != 12345 {
		t.Fatal("positive override ignored")
	}
	if p := Cluster1(2, -1); p.Hosts[0].Memory != 0 {
		t.Fatal("negative override should disable limits")
	}
}

func TestCluster2Heterogeneous(t *testing.T) {
	p := Cluster2(0)
	if len(p.Hosts) != 8 {
		t.Fatalf("hosts = %d", len(p.Hosts))
	}
	if p.Hosts[0].Speed != SpeedP4_17 || p.Hosts[7].Speed != SpeedP4_26 {
		t.Fatalf("speed range [%v,%v], want [%v,%v]", p.Hosts[0].Speed, p.Hosts[7].Speed, SpeedP4_17, SpeedP4_26)
	}
	if p.Hosts[3].Speed <= p.Hosts[2].Speed {
		t.Fatal("speeds not increasing")
	}
}

func TestCluster3TwoSites(t *testing.T) {
	p := Cluster3(0)
	if len(p.Hosts) != 10 || p.WAN == nil {
		t.Fatal("cluster3 shape wrong")
	}
	n0, n1 := 0, 0
	for _, s := range p.SiteOf {
		if s == 0 {
			n0++
		} else {
			n1++
		}
	}
	if n0 != 7 || n1 != 3 {
		t.Fatalf("sites %d+%d, want 7+3", n0, n1)
	}
	// Cross-site route goes through the WAN link; intra-site does not.
	cross, err := p.Route(p.Hosts[0], p.Hosts[9])
	if err != nil {
		t.Fatal(err)
	}
	foundWAN := false
	for _, l := range cross {
		if l == p.WAN {
			foundWAN = true
		}
	}
	if !foundWAN {
		t.Fatal("cross-site route misses the WAN link")
	}
	local, err := p.Route(p.Hosts[0], p.Hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range local {
		if l == p.WAN {
			t.Fatal("intra-site route uses the WAN link")
		}
	}
}

// A solve on cluster3 with perturbing flows must be slower than without.
func TestPerturbSlowsCrossSiteTraffic(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 2000, Seed: 11})
	b, xtrue := gen.RHSForSolution(a)
	run := func(flows int) float64 {
		p := Cluster3(-1)
		e := vgrid.NewEngine(p.Platform)
		pend, err := core.Launch(e, p.Hosts, a, b, core.Options{Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if flows > 0 {
			p.Perturb(e, flows, pend.Running)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		res := pend.Result()
		for i := range res.X {
			if math.Abs(res.X[i]-xtrue[i]) > 1e-5*(1+math.Abs(xtrue[i])) {
				t.Fatalf("flows=%d: wrong solution at %d", flows, i)
			}
		}
		return res.Time
	}
	clean := run(0)
	perturbed := run(5)
	if perturbed <= clean {
		t.Fatalf("perturbed %.4fs not slower than clean %.4fs", perturbed, clean)
	}
}

func TestPerturbNeedsTwoSites(t *testing.T) {
	p := Cluster1(2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Perturb on single-site cluster accepted")
		}
	}()
	p.Perturb(vgrid.NewEngine(p.Platform), 1, func() bool { return false })
}

func TestPerturbZeroFlowsNoop(t *testing.T) {
	p := Cluster3(0)
	e := vgrid.NewEngine(p.Platform)
	p.Perturb(e, 0, func() bool { return true })
	// No processes spawned: Run finishes immediately.
	if end, err := e.Run(); err != nil || end != 0 {
		t.Fatalf("end=%v err=%v", end, err)
	}
}
