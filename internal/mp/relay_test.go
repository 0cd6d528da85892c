package mp

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/vgrid"
)

// relayWorld builds a relayed plan over nine ranks of a three-cluster
// synthetic grid, every rank coupled to every other, and runs body on each.
func relayWorld(t *testing.T, body func(c *Comm, rp *plan.RankPlan) error) {
	t.Helper()
	const n, nr = 180, 9
	pl := vgrid.Synthetic(nr, 3, 0, 1)
	a := gen.DiagDominant(gen.DiagDominantOpts{N: n, Band: n, PerRow: 40, Seed: 3})
	bands := make([]plan.Band, nr)
	ownerOf := func(j int) int { return j * nr / n }
	for i := range bands {
		lo, hi := i*n/nr, (i+1)*n/nr
		bands[i] = plan.Band{Start: lo, End: hi, Lo: lo, Hi: hi}
	}
	cluster := make([]int, nr)
	for r, h := range pl.Hosts {
		cluster[r] = h.ClusterIndex()
	}
	p, err := plan.Build(a, plan.Spec{
		N: n, Bands: bands, NRanks: nr, Cluster: cluster,
		Owner:        func(b int) int { return b },
		Contributors: func(j int) []int { return []int{ownerOf(j)} },
		Weight: func(k, j int) float64 {
			if ownerOf(j) == k {
				return 1
			}
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := vgrid.NewEngine(pl)
	Launch(e, pl.Hosts, "r", func(c *Comm) error { return body(c, &p.Ranks[c.Rank()]) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

var testRelayTags = RelayTags{1, 4, 5, 6}

// update is group (origin → dst)'s version-ver payload, [ver, echo, vals…].
func update(origin, dst, ver, vals int) []float64 {
	f := []float64{float64(ver), float64(-dst)}
	for i := range vals {
		f = append(f, float64(1000*origin+dst)+float64(i)/float64(vals)+float64(ver))
	}
	return f
}

// sendAll sends every send group's version-ver update and flushes.
func sendAll(r *Relay, rp *plan.RankPlan, ver int, crit float64) error {
	for gi, g := range rp.Send {
		if err := r.Send(gi, update(rp.Rank, g.Peer, ver, g.Vals)); err != nil {
			return err
		}
	}
	return r.Flush(crit)
}

// checkUpdate compares a delivered packet with group (peer → rank)'s
// version-ver update.
func checkUpdate(pk *Packet, g plan.PeerIO, rank, ver int) error {
	if pk == nil {
		return fmt.Errorf("rank %d: no update from %d", rank, g.Peer)
	}
	if want := update(g.Peer, rank, ver, g.Vals); fmt.Sprint(pk.Floats) != fmt.Sprint(want) {
		return fmt.Errorf("rank %d: from %d got %v, want %v", rank, g.Peer, pk.Floats, want)
	}
	return nil
}

// TestRelayRound: one blocking round delivers every group's record once,
// under its own key, and carries the criterion maximum to every rank.
func TestRelayRound(t *testing.T) {
	relayed := make([]int, 9) // per rank: the bodies may run on several lanes
	relayWorld(t, func(c *Comm, rp *plan.RankPlan) error {
		recv := func(from, tag int, _ string) (*Packet, error) { return c.Recv(from, tag), nil }
		r := NewRelay(c, rp, rp.Relay, testRelayTags, recv, true)
		if err := sendAll(r, rp, 1, float64(10+c.Rank())); err != nil {
			return err
		}
		if err := r.Round(); err != nil {
			return err
		}
		for gi, g := range rp.Recv {
			pk, err := r.Recv(gi)
			if err != nil {
				return err
			}
			if err := checkUpdate(pk, g, c.Rank(), 1); err != nil {
				return err
			}
			c.Release(pk)
			if g.Relayed() {
				relayed[c.Rank()]++
				if pk := r.Latest(gi); pk != nil {
					return fmt.Errorf("rank %d: record from %d delivered twice", c.Rank(), g.Peer)
				}
			}
		}
		if m, err := r.Max(0); err != nil || m != 18 {
			return fmt.Errorf("rank %d: criterion %v (%v), want 18", c.Rank(), m, err)
		}
		return nil
	})
	if slices.Max(relayed) == 0 {
		t.Fatal("no relayed group")
	}
}

// TestRelayPumpKeepsNewest: with a newer record sent between two
// non-blocking pumps, every group delivers the newest record, once.
func TestRelayPumpKeepsNewest(t *testing.T) {
	relayWorld(t, func(c *Comm, rp *plan.RankPlan) error {
		r := NewRelay(c, rp, rp.Relay, testRelayTags, nil, false)
		if err := sendAll(r, rp, 1, 0); err != nil {
			return err
		}
		c.Proc().Sleep(1)
		if err := r.Pump(); err != nil {
			return err
		}
		if err := sendAll(r, rp, 2, 0); err != nil {
			return err
		}
		for range 4 {
			c.Proc().Sleep(1)
			if err := r.Pump(); err != nil {
				return err
			}
		}
		for gi, g := range rp.Recv {
			pk := r.Latest(gi)
			if err := checkUpdate(pk, g, c.Rank(), 2); err != nil {
				return err
			}
			c.Release(pk)
			if pk := r.Latest(gi); pk != nil {
				return fmt.Errorf("rank %d: update from %d delivered twice", c.Rank(), g.Peer)
			}
		}
		return nil
	})
}
