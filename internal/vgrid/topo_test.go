package vgrid

import (
	"strings"
	"testing"
)

// clusteredPlatform: 2+2 hosts on two declared clusters joined by one WAN.
func clusteredPlatform() (*Platform, []*Host) {
	pl := NewPlatform()
	hosts := make([]*Host, 4)
	nics := make([]*Link, 4)
	for i := range hosts {
		hosts[i] = pl.AddHost(string(rune('a'+i)), 1e9, 0)
		nics[i] = NewLink("nic-"+hosts[i].Name, 25e-6, 1.25e7)
	}
	wan := NewLink("wan", 5e-3, 2.5e6)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if (i < 2) == (j < 2) {
				pl.SetRoute(hosts[i], hosts[j], nics[i], nics[j])
			} else {
				pl.SetRoute(hosts[i], hosts[j], nics[i], wan, nics[j])
			}
		}
	}
	pl.AddCluster("left", hosts[0], hosts[1])
	pl.AddCluster("right", hosts[2], hosts[3])
	return pl, hosts
}

func TestClusterMetadata(t *testing.T) {
	pl, hosts := clusteredPlatform()
	if pl.NumClusters() != 2 {
		t.Fatalf("NumClusters = %d", pl.NumClusters())
	}
	if c := pl.Clusters()[hosts[1].ClusterIndex()]; c.Name != "left" || c.Index != 0 {
		t.Fatalf("cluster of hosts[1] = %+v", c)
	}
	if hosts[2].ClusterIndex() != 1 {
		t.Fatalf("ClusterIndex = %d", hosts[2].ClusterIndex())
	}
	if !pl.SameCluster(hosts[0], hosts[1]) || pl.SameCluster(hosts[1], hosts[2]) {
		t.Fatal("SameCluster misclassifies")
	}
	if err := pl.ValidateTopology(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
}

func TestUnclusteredHostsShareImplicitCluster(t *testing.T) {
	pl, a, b := twoHostPlatform(1e-3, 1e6)
	if !pl.SameCluster(a, b) {
		t.Fatal("two unassigned hosts must count as one flat cluster")
	}
	if pl.ValidateTopology() != nil {
		t.Fatal("flat platform must validate")
	}
}

func TestAddClusterRejectsDoubleAssignment(t *testing.T) {
	pl := NewPlatform()
	h := pl.AddHost("h", 1e9, 0)
	pl.AddCluster("one", h)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic on double cluster assignment")
		}
	}()
	pl.AddCluster("two", h)
}

func TestValidateTopologyUnassignedHost(t *testing.T) {
	pl, a, b := twoHostPlatform(1e-3, 1e6)
	pl.AddCluster("one", a)
	err := pl.ValidateTopology()
	if err == nil || !strings.Contains(err.Error(), "belongs to no cluster") {
		t.Fatalf("err = %v", err)
	}
	_ = b
}

func TestValidateTopologyMissingRoute(t *testing.T) {
	pl := NewPlatform()
	a := pl.AddHost("a", 1e9, 0)
	b := pl.AddHost("b", 1e9, 0)
	pl.AddCluster("one", a)
	pl.AddCluster("two", b)
	err := pl.ValidateTopology()
	if err == nil || !strings.Contains(err.Error(), "no inter-cluster route") {
		t.Fatalf("err = %v", err)
	}
}

// TestClusterTrafficSplit: the per-process counters must classify each sent
// message by whether its route crosses a cluster boundary.
func TestClusterTrafficSplit(t *testing.T) {
	pl, hosts := clusteredPlatform()
	e := NewEngine(pl)
	procs := make([]*Proc, 3)
	procs[1] = e.Spawn(hosts[1], "lan-peer", func(p *Proc) error {
		p.Recv(AnySource, 1)
		return nil
	})
	procs[2] = e.Spawn(hosts[2], "wan-peer", func(p *Proc) error {
		p.Recv(AnySource, 1)
		p.Recv(AnySource, 1)
		return nil
	})
	procs[0] = e.Spawn(hosts[0], "sender", func(p *Proc) error {
		if err := p.Send(procs[1], 1, nil, 1000); err != nil {
			return err
		}
		if err := p.Send(procs[2], 1, nil, 2000); err != nil {
			return err
		}
		return p.Send(procs[2], 1, nil, 3000)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	sender := procs[0]
	if sender.IntraMsgs != 1 || sender.IntraBytes != 1000 {
		t.Fatalf("intra: %d msgs / %d bytes", sender.IntraMsgs, sender.IntraBytes)
	}
	if sender.InterMsgs != 2 || sender.InterBytes != 5000 {
		t.Fatalf("inter: %d msgs / %d bytes", sender.InterMsgs, sender.InterBytes)
	}
	if sender.MsgsSent != sender.IntraMsgs+sender.InterMsgs ||
		sender.BytesSent != sender.IntraBytes+sender.InterBytes {
		t.Fatal("split does not add up to the totals")
	}
	for _, st := range e.Stats() {
		if st.Name == "sender" && (st.InterBytes != 5000 || st.IntraBytes != 1000) {
			t.Fatalf("Stats split wrong: %+v", st)
		}
	}
}
