package mp

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/vgrid"
)

// world builds a fully connected n-host LAN and runs body on each rank.
func world(t *testing.T, n int, body func(c *Comm) error) *vgrid.Engine {
	t.Helper()
	pl := vgrid.NewPlatform()
	hosts := make([]*vgrid.Host, n)
	for i := range hosts {
		hosts[i] = pl.AddHost(fmt.Sprintf("h%d", i), 1e9, 0)
	}
	lan := vgrid.NewLink("lan", 5e-5, 1.25e7)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pl.SetRoute(hosts[i], hosts[j], lan)
		}
	}
	e := vgrid.NewEngine(pl)
	Launch(e, hosts, "w", body)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRankSize(t *testing.T) {
	seen := make([]bool, 5)
	world(t, 5, func(c *Comm) error {
		if c.Size() != 5 {
			return fmt.Errorf("size = %d", c.Size())
		}
		seen[c.Rank()] = true
		return nil
	})
	for r, ok := range seen {
		if !ok {
			t.Fatalf("rank %d never ran", r)
		}
	}
}

func TestSendRecvFloats(t *testing.T) {
	world(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.SendFloats(1, 3, []float64{1, 2, 3})
		}
		pk := c.Recv(0, 3)
		if pk.From != 0 || pk.Tag != 3 || len(pk.Floats) != 3 || pk.Floats[2] != 3 {
			return fmt.Errorf("bad packet %+v", pk)
		}
		return nil
	})
}

func TestSendCopiesPayload(t *testing.T) {
	world(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			data := []float64{7}
			if err := c.SendFloats(1, 0, data); err != nil {
				return err
			}
			data[0] = 99 // mutate after send: receiver must still see 7
			return nil
		}
		pk := c.Recv(0, 0)
		if pk.Floats[0] != 7 {
			return fmt.Errorf("payload aliased: got %v", pk.Floats[0])
		}
		return nil
	})
}

// TestLostPayloadReturnsToPool: xsend owns its payload, so a pooled buffer
// lost after the last attempt goes back to the pool and the next GetFloats
// of its size class hands out the same backing array.
func TestLostPayloadReturnsToPool(t *testing.T) {
	pl := vgrid.NewPlatform()
	a, b := pl.AddHost("a", 1e9, 0), pl.AddHost("b", 1e9, 0)
	pl.SetRoute(a, b, vgrid.NewLink("lan", 5e-5, 1.25e7))
	e := vgrid.NewEngine(pl)
	e.SetFaultPlan(vgrid.NewFaultPlan(1).DropOnLink("lan", 0, math.Inf(1), 1))
	Launch(e, []*vgrid.Host{a, b}, "w", func(c *Comm) error {
		if c.Rank() == 1 {
			return nil
		}
		buf := c.p.GetFloats(3)
		if err := c.xsend(c.procs[1], 0, buf, 8*len(buf)+msgOverheadBytes); err != nil {
			return err
		}
		if got := c.p.GetFloats(3); &got[0] != &buf[0] {
			return errors.New("lost payload was not returned to the pool")
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSignalAndTryRecv(t *testing.T) {
	world(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(1e6)
			return c.Signal(1, 5)
		}
		if pk := c.TryRecv(0, 5); pk != nil {
			return errors.New("signal visible before it was sent")
		}
		c.Compute(1e9) // long enough for the signal to arrive
		if pk := c.TryRecv(0, 5); pk == nil {
			return errors.New("signal not visible after compute")
		}
		return nil
	})
}

func TestDrainLatest(t *testing.T) {
	world(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 1; i <= 4; i++ {
				if err := c.SendFloats(1, 0, []float64{float64(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		c.Compute(1e9)
		pk := c.DrainLatest(0, 0)
		if pk == nil || pk.Floats[0] != 4 {
			return fmt.Errorf("DrainLatest = %+v, want value 4", pk)
		}
		if extra := c.TryRecv(0, 0); extra != nil {
			return errors.New("drain left messages behind")
		}
		return nil
	})
}

func TestAllreduceOps(t *testing.T) {
	world(t, 4, func(c *Comm) error {
		v := float64(c.Rank() + 1) // 1..4
		sum, err := c.Allreduce(v, OpSum)
		if err != nil {
			return err
		}
		if sum != 10 {
			return fmt.Errorf("sum = %v, want 10", sum)
		}
		mx, err := c.Allreduce(v, OpMax)
		if err != nil {
			return err
		}
		if mx != 4 {
			return fmt.Errorf("max = %v", mx)
		}
		return nil
	})
}

func TestBcast(t *testing.T) {
	world(t, 4, func(c *Comm) error {
		var data []float64
		if c.Rank() == 2 {
			data = []float64{3.14, 2.71}
		}
		got, err := c.Bcast(2, data)
		if err != nil {
			return err
		}
		if len(got) != 2 || got[0] != 3.14 || got[1] != 2.71 {
			return fmt.Errorf("rank %d bcast got %v", c.Rank(), got)
		}
		return nil
	})
}

func TestGather(t *testing.T) {
	world(t, 3, func(c *Comm) error {
		mine := []float64{float64(c.Rank()) * 10}
		got, err := c.Gather(0, mine)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if got != nil {
				return errors.New("non-root got gather data")
			}
			return nil
		}
		for r := 0; r < 3; r++ {
			if got[r][0] != float64(r)*10 {
				return fmt.Errorf("gather[%d] = %v", r, got[r])
			}
		}
		return nil
	})
}

func TestCommunicationChargesTime(t *testing.T) {
	var endTimes [2]float64
	world(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.SendFloats(1, 0, make([]float64, 125000)); err != nil { // 1 MB
				return err
			}
		} else {
			c.Recv(0, 0)
		}
		endTimes[c.Rank()] = c.Now()
		return nil
	})
	// 1 MB over 12.5 MB/s is 0.08 s.
	if endTimes[1] < 0.08 {
		t.Fatalf("receiver finished at %v, transfer undercharged", endTimes[1])
	}
	if math.Abs(endTimes[1]-0.08) > 0.01 {
		t.Fatalf("receiver finished at %v, want about 0.08", endTimes[1])
	}
}

func TestUserTagRangeEnforced(t *testing.T) {
	world(t, 2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		defer func() {
			if recover() == nil {
				panic("expected panic for out-of-range tag")
			}
		}()
		return c.SendFloats(1, internalTagBase, nil)
	})
}
