package mp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/vgrid"
)

// clusteredWorld builds two LAN sites (nA + nB hosts) joined by a shared WAN
// link, declares them as clusters, and runs body on every rank.
func clusteredWorld(t *testing.T, nA, nB int, body func(c *Comm) error) *vgrid.Engine {
	t.Helper()
	pl := vgrid.NewPlatform()
	n := nA + nB
	hosts := make([]*vgrid.Host, n)
	nics := make([]*vgrid.Link, n)
	for i := range hosts {
		hosts[i] = pl.AddHost(fmt.Sprintf("h%d", i), 1e9, 0)
		nics[i] = vgrid.NewLink(fmt.Sprintf("nic%d", i), 25e-6, 1.25e7)
	}
	wan := vgrid.NewLink("wan", 5e-3, 2.5e6)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (i < nA) == (j < nA) {
				pl.SetRoute(hosts[i], hosts[j], nics[i], nics[j])
			} else {
				pl.SetRoute(hosts[i], hosts[j], nics[i], wan, nics[j])
			}
		}
	}
	pl.AddCluster("siteA", hosts[:nA]...)
	pl.AddCluster("siteB", hosts[nA:]...)
	e := vgrid.NewEngine(pl)
	Launch(e, hosts, "w", body)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTopoAllreduce(t *testing.T) {
	for _, op := range []Op{OpSum, OpMax} {
		clusteredWorld(t, 3, 2, func(c *Comm) error {
			c.Topo = true
			v := float64(c.Rank() + 1)
			got, err := c.Allreduce(v, op)
			if err != nil {
				return err
			}
			want := map[Op]float64{OpSum: 15, OpMax: 5}[op]
			if got != want {
				return fmt.Errorf("rank %d: op %v = %v, want %v", c.Rank(), op, got, want)
			}
			return nil
		})
	}
}

func TestTopoBcast(t *testing.T) {
	// Roots covering every role: cluster leader (0), plain member (1), and
	// the second cluster's leader and member (3, 4).
	for _, root := range []int{0, 1, 3, 4} {
		clusteredWorld(t, 3, 2, func(c *Comm) error {
			c.Topo = true
			var data []float64
			if c.Rank() == root {
				data = []float64{float64(root), 42}
			}
			got, err := c.Bcast(root, data)
			if err != nil {
				return err
			}
			if len(got) != 2 || got[0] != float64(root) || got[1] != 42 {
				return fmt.Errorf("rank %d: bcast from %d gave %v", c.Rank(), root, got)
			}
			return nil
		})
	}
}

func TestTopoGather(t *testing.T) {
	for _, root := range []int{0, 1, 3, 4} {
		clusteredWorld(t, 3, 2, func(c *Comm) error {
			c.Topo = true
			data := []float64{float64(c.Rank()), float64(c.Rank() * 10)}
			got, err := c.Gather(root, data)
			if err != nil {
				return err
			}
			if c.Rank() != root {
				if got != nil {
					return fmt.Errorf("rank %d: non-root gather returned %v", c.Rank(), got)
				}
				return nil
			}
			for r := 0; r < c.Size(); r++ {
				if len(got[r]) != 2 || got[r][0] != float64(r) || got[r][1] != float64(r*10) {
					return fmt.Errorf("root %d: slot %d = %v", root, r, got[r])
				}
			}
			return nil
		})
	}
}

// TestTopoGatherAllocs: the hierarchical gather costs the host allocator no
// more than the flat one on the same two 3-host clusters, for a root that
// leads its cluster and for one that does not.
func TestTopoGatherAllocs(t *testing.T) {
	for _, root := range []int{0, 4} {
		run := func(topo bool) float64 {
			return testing.AllocsPerRun(3, func() {
				clusteredWorld(t, 3, 3, func(c *Comm) error {
					c.Topo = topo
					data := make([]float64, 1000)
					for range 50 {
						if _, err := c.Gather(root, data); err != nil {
							return err
						}
					}
					return nil
				})
			})
		}
		flat, topo := run(false), run(true)
		t.Logf("root %d: %v allocations flat, %v with Topo", root, flat, topo)
		if topo > flat {
			t.Errorf("root %d: 50 gathers take %v allocations with Topo, %v flat", root, topo, flat)
		}
	}
}

// TestTopoFallsBackOnFlatPlatform: with no cluster declarations the Topo
// flag must be a no-op and the flat algorithms still produce the result.
func TestTopoFallsBackOnFlatPlatform(t *testing.T) {
	world(t, 4, func(c *Comm) error {
		c.Topo = true
		got, err := c.Allreduce(float64(c.Rank()), OpSum)
		if err != nil {
			return err
		}
		if got != 6 {
			return fmt.Errorf("rank %d: sum = %v", c.Rank(), got)
		}
		return nil
	})
}

// TestTopoAllreduceCheaperOnWAN: the hierarchical reduction must cross the
// WAN fewer times than the flat star, which shows up directly as a shorter
// virtual completion time on a latency-dominated platform.
func TestTopoAllreduceCheaperOnWAN(t *testing.T) {
	run := func(topo bool) float64 {
		pl := vgrid.NewPlatform()
		const nA, nB = 4, 4
		n := nA + nB
		hosts := make([]*vgrid.Host, n)
		nics := make([]*vgrid.Link, n)
		for i := range hosts {
			hosts[i] = pl.AddHost(fmt.Sprintf("h%d", i), 1e9, 0)
			nics[i] = vgrid.NewLink(fmt.Sprintf("nic%d", i), 25e-6, 1.25e7)
		}
		wan := vgrid.NewLink("wan", 5e-3, 2.5e6)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (i < nA) == (j < nA) {
					pl.SetRoute(hosts[i], hosts[j], nics[i], nics[j])
				} else {
					pl.SetRoute(hosts[i], hosts[j], nics[i], wan, nics[j])
				}
			}
		}
		pl.AddCluster("siteA", hosts[:nA]...)
		pl.AddCluster("siteB", hosts[nA:]...)
		e := vgrid.NewEngine(pl)
		Launch(e, hosts, "w", func(c *Comm) error {
			c.Topo = topo
			for i := 0; i < 10; i++ {
				if _, err := c.Allreduce(1, OpSum); err != nil {
					return err
				}
			}
			return nil
		})
		end, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	flat, topo := run(false), run(true)
	if math.IsNaN(flat) || topo >= flat {
		t.Fatalf("hierarchical allreduce not faster: topo %v vs flat %v", topo, flat)
	}
}
