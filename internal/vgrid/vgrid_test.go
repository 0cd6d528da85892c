package vgrid

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func twoHostPlatform(latency, bandwidth float64) (*Platform, *Host, *Host) {
	pl := NewPlatform()
	a := pl.AddHost("a", 1e9, 0)
	b := pl.AddHost("b", 1e9, 0)
	l := NewLink("ab", latency, bandwidth)
	pl.SetRoute(a, b, l)
	return pl, a, b
}

func TestComputeAdvancesClock(t *testing.T) {
	pl := NewPlatform()
	h := pl.AddHost("h", 2e9, 0)
	e := NewEngine(pl)
	var at float64
	e.Spawn(h, "p", func(p *Proc) error {
		p.Compute(4e9) // 2 seconds at 2 Gflop/s
		at = p.Now()
		return nil
	})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(at-2) > 1e-12 || math.Abs(end-2) > 1e-12 {
		t.Fatalf("clock = %v, end = %v, want 2", at, end)
	}
}

func TestSendRecvTiming(t *testing.T) {
	latency, bw := 0.01, 1e6
	pl, a, b := twoHostPlatform(latency, bw)
	e := NewEngine(pl)
	var sender, receiver *Proc
	var recvAt float64
	sender = e.Spawn(a, "send", func(p *Proc) error {
		return p.Send(receiver, 1, []float64{42}, 1e6) // 1 s push + 0.01 latency
	})
	receiver = e.Spawn(b, "recv", func(p *Proc) error {
		m := p.Recv(sender.ID, 1)
		recvAt = p.Now()
		if m.Floats[0] != 42 {
			return errors.New("wrong payload")
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := 1.0 + latency
	if math.Abs(recvAt-want) > 1e-9 {
		t.Fatalf("recv at %v, want %v", recvAt, want)
	}
}

func TestLinkSerialization(t *testing.T) {
	// Two messages pushed back to back on one link: the second arrives one
	// push-time later than the first.
	pl, a, b := twoHostPlatform(0.001, 1e6)
	e := NewEngine(pl)
	var src, dst *Proc
	var arrivals []float64
	src = e.Spawn(a, "src", func(p *Proc) error {
		if err := p.Send(dst, 1, nil, 1e6); err != nil {
			return err
		}
		return p.Send(dst, 1, nil, 1e6)
	})
	dst = e.Spawn(b, "dst", func(p *Proc) error {
		for i := 0; i < 2; i++ {
			p.Recv(src.ID, 1)
			arrivals = append(arrivals, p.Now())
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(arrivals[0]-1.001) > 1e-9 || math.Abs(arrivals[1]-2.001) > 1e-9 {
		t.Fatalf("arrivals = %v, want [1.001 2.001]", arrivals)
	}
}

func TestContentionFromThirdParty(t *testing.T) {
	// A perturbing flow on a shared link delays the payload transfer —
	// the Table 4 mechanism.
	pl := NewPlatform()
	a := pl.AddHost("a", 1e9, 0)
	b := pl.AddHost("b", 1e9, 0)
	c := pl.AddHost("c", 1e9, 0)
	shared := NewLink("shared", 0.001, 1e6)
	pl.SetRoute(a, b, shared)
	pl.SetRoute(c, b, shared)
	e := NewEngine(pl)
	var dst *Proc
	var recvAt float64
	perturber := e.Spawn(c, "perturb", func(p *Proc) error {
		return p.Send(dst, 9, nil, 2e6) // occupies link for 2 s
	})
	_ = perturber
	src := e.Spawn(a, "src", func(p *Proc) error {
		p.Sleep(0.5) // perturbation already in flight
		return p.Send(dst, 1, nil, 1e6)
	})
	dst = e.Spawn(b, "dst", func(p *Proc) error {
		p.Recv(src.ID, 1)
		recvAt = p.Now()
		p.Recv(AnySource, 9)
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Link busy until t=2, then 1 s push + latency.
	if math.Abs(recvAt-3.001) > 1e-9 {
		t.Fatalf("recv at %v, want 3.001", recvAt)
	}
}

func TestFairSharing(t *testing.T) {
	pl := NewPlatform()
	a := pl.AddHost("a", 1e9, 0)
	b := pl.AddHost("b", 1e9, 0)
	c := pl.AddHost("c", 1e9, 0)
	shared := NewLink("shared", 0, 1e6)
	shared.Mode = SharingFair
	pl.SetRoute(a, b, shared)
	pl.SetRoute(c, b, shared)
	e := NewEngine(pl)
	var dst *Proc
	var arrivals = map[int]float64{}
	s1 := e.Spawn(a, "s1", func(p *Proc) error {
		return p.Send(dst, 1, nil, 1e6)
	})
	s2 := e.Spawn(c, "s2", func(p *Proc) error {
		p.Sleep(0.1) // starts while s1's transfer is in flight
		return p.Send(dst, 2, nil, 1e6)
	})
	_, _ = s1, s2
	dst = e.Spawn(b, "dst", func(p *Proc) error {
		for i := 0; i < 2; i++ {
			m := p.Recv(AnySource, AnyTag)
			arrivals[m.Tag] = p.Now()
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// s1 alone: arrives at 1.0. s2 at half rate from t=0.1: 0.1+2 = 2.1.
	if math.Abs(arrivals[1]-1.0) > 1e-9 {
		t.Fatalf("first transfer at %v, want 1.0", arrivals[1])
	}
	if math.Abs(arrivals[2]-2.1) > 1e-9 {
		t.Fatalf("shared transfer at %v, want 2.1", arrivals[2])
	}
}

func TestFairSharingRecoversAfterIdle(t *testing.T) {
	// After earlier transfers end, a new one gets the full bandwidth again.
	pl := NewPlatform()
	a := pl.AddHost("a", 1e9, 0)
	b := pl.AddHost("b", 1e9, 0)
	l := NewLink("l", 0, 1e6)
	l.Mode = SharingFair
	pl.SetRoute(a, b, l)
	e := NewEngine(pl)
	var dst *Proc
	var second float64
	src := e.Spawn(a, "src", func(p *Proc) error {
		if err := p.Send(dst, 1, nil, 1e6); err != nil { // busy [0,1]
			return err
		}
		p.Sleep(5) // link idle long since
		return p.Send(dst, 2, nil, 1e6)
	})
	_ = src
	dst = e.Spawn(b, "dst", func(p *Proc) error {
		p.Recv(AnySource, 1)
		p.Recv(AnySource, 2)
		second = p.Now() - 6 // sent after the 1 s first push and the 5 s sleep
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(second-1.0) > 1e-9 {
		t.Fatalf("post-idle transfer took %v, want full-rate 1.0", second)
	}
}

func TestTryRecvSeesOnlyArrived(t *testing.T) {
	pl, a, b := twoHostPlatform(0.5, 1e9)
	e := NewEngine(pl)
	var src, dst *Proc
	src = e.Spawn(a, "src", func(p *Proc) error {
		return p.Send(dst, 1, []float64{1}, 8)
	})
	dst = e.Spawn(b, "dst", func(p *Proc) error {
		if m := p.TryRecv(src.ID, 1); m != nil {
			return fmt.Errorf("message visible at t=%v before arrival", p.Now())
		}
		p.Sleep(1)
		if m := p.TryRecv(src.ID, 1); m == nil {
			return errors.New("message not visible after arrival")
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRecvWildcardsAndOrdering(t *testing.T) {
	pl := NewPlatform()
	a := pl.AddHost("a", 1e9, 0)
	b := pl.AddHost("b", 1e9, 0)
	c := pl.AddHost("c", 1e9, 0)
	pl.SetRoute(a, c, NewLink("ac", 0.010, 1e9))
	pl.SetRoute(b, c, NewLink("bc", 0.001, 1e9))
	e := NewEngine(pl)
	var dst *Proc
	var order []int
	s1 := e.Spawn(a, "s1", func(p *Proc) error { return p.Send(dst, 7, nil, 8) })
	s2 := e.Spawn(b, "s2", func(p *Proc) error { return p.Send(dst, 7, nil, 8) })
	_, _ = s1, s2
	dst = e.Spawn(c, "dst", func(p *Proc) error {
		for i := 0; i < 2; i++ {
			m := p.Recv(AnySource, AnyTag)
			order = append(order, m.From)
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// s2's link has lower latency, so its message must be received first.
	if len(order) != 2 || order[0] != s2.ID || order[1] != s1.ID {
		t.Fatalf("order = %v, want [%d %d]", order, s2.ID, s1.ID)
	}
}

func TestRecvTagFilter(t *testing.T) {
	pl, a, b := twoHostPlatform(0.001, 1e9)
	e := NewEngine(pl)
	var src, dst *Proc
	src = e.Spawn(a, "src", func(p *Proc) error {
		if err := p.Send(dst, 1, []float64{1}, 8); err != nil {
			return err
		}
		return p.Send(dst, 2, []float64{2}, 8)
	})
	dst = e.Spawn(b, "dst", func(p *Proc) error {
		m := p.Recv(src.ID, 2) // skip over the tag-1 message
		if m.Floats[0] != 2 {
			return errors.New("tag filter returned wrong message")
		}
		m = p.Recv(src.ID, 1)
		if m.Floats[0] != 1 {
			return errors.New("earlier message lost")
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	pl, a, b := twoHostPlatform(0.001, 1e9)
	e := NewEngine(pl)
	e.Spawn(a, "p0", func(p *Proc) error {
		p.Recv(AnySource, 1) // nobody ever sends
		return nil
	})
	e.Spawn(b, "p1", func(p *Proc) error { return nil })
	_, err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if err.Error() != "vgrid: deadlock: all processes blocked: p0" {
		t.Fatalf("deadlock error should name p0 and nothing else: %v", err)
	}
}

func TestMemoryAccounting(t *testing.T) {
	pl := NewPlatform()
	h := pl.AddHost("h", 1e9, 1000)
	e := NewEngine(pl)
	e.Spawn(h, "p", func(p *Proc) error {
		if err := p.Alloc(600); err != nil {
			return err
		}
		if err := p.Alloc(600); !errors.Is(err, ErrOutOfMemory) {
			return fmt.Errorf("overcommit accepted: %v", err)
		}
		p.Free(200)
		if err := p.Alloc(600); err != nil {
			return fmt.Errorf("alloc after free failed: %v", err)
		}
		if p.allocated != 1000 {
			return fmt.Errorf("allocated = %d, want 1000", p.allocated)
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if h.HostMemoryInUse() != 0 {
		t.Fatalf("memory not released at process exit: %d", h.HostMemoryInUse())
	}
}

func TestMemorySharedAcrossProcsOnHost(t *testing.T) {
	pl := NewPlatform()
	h := pl.AddHost("h", 1e9, 1000)
	e := NewEngine(pl)
	var gotErr error
	e.Spawn(h, "p0", func(p *Proc) error {
		if err := p.Alloc(800); err != nil {
			return err
		}
		p.Sleep(1)
		return nil
	})
	e.Spawn(h, "p1", func(p *Proc) error {
		p.Sleep(0.5) // after p0 allocated
		gotErr = p.Alloc(800)
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, ErrOutOfMemory) {
		t.Fatalf("second proc alloc = %v, want OOM", gotErr)
	}
}

func TestUnlimitedMemory(t *testing.T) {
	pl := NewPlatform()
	h := pl.AddHost("h", 1e9, 0)
	e := NewEngine(pl)
	e.Spawn(h, "p", func(p *Proc) error { return p.Alloc(1 << 50) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		pl := NewPlatform()
		hosts := make([]*Host, 4)
		for i := range hosts {
			hosts[i] = pl.AddHost(fmt.Sprintf("h%d", i), 1e9*(1+float64(i)), 0)
		}
		link := NewLink("lan", 0.0005, 1.25e7)
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				pl.SetRoute(hosts[i], hosts[j], link)
			}
		}
		e := NewEngine(pl)
		procs := make([]*Proc, 4)
		clocks := make([]float64, 4)
		for i := 0; i < 4; i++ {
			i := i
			procs[i] = e.Spawn(hosts[i], fmt.Sprintf("p%d", i), func(p *Proc) error {
				for iter := 0; iter < 5; iter++ {
					p.Compute(1e6 * float64(i+1))
					for j := 0; j < 4; j++ {
						if j != i {
							if err := p.Send(procs[j], iter, []float64{float64(i)}, 800); err != nil {
								return err
							}
						}
					}
					for j := 0; j < 3; j++ {
						p.Recv(AnySource, iter)
					}
				}
				clocks[i] = p.Now()
				return nil
			})
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return clocks
	}
	c1 := run()
	c2 := run()
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("run not deterministic: %v vs %v", c1, c2)
		}
	}
}

func TestCausalOrderNeverViolated(t *testing.T) {
	// Messages must never be observed before their arrival time, under a
	// mix of TryRecv polling and blocking receives.
	pl := NewPlatform()
	hosts := make([]*Host, 3)
	for i := range hosts {
		hosts[i] = pl.AddHost(fmt.Sprintf("h%d", i), 1e9, 0)
	}
	link := NewLink("lan", 0.01, 1e6)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			pl.SetRoute(hosts[i], hosts[j], link)
		}
	}
	e := NewEngine(pl)
	procs := make([]*Proc, 3)
	violated := false
	for i := 0; i < 3; i++ {
		i := i
		procs[i] = e.Spawn(hosts[i], fmt.Sprintf("p%d", i), func(p *Proc) error {
			for iter := 0; iter < 10; iter++ {
				p.Compute(1e5 * float64(1+((i+iter)%3)))
				for j := 0; j < 3; j++ {
					if j != i {
						if err := p.Send(procs[j], 0, []float64{p.Now()}, 400); err != nil {
							return err
						}
					}
				}
				for {
					m := p.TryRecv(AnySource, 0)
					if m == nil {
						break
					}
					if m.Arrival > p.Now() {
						violated = true
					}
				}
			}
			return nil
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if violated {
		t.Fatal("a message was observed before its arrival time")
	}
}

func TestErrorsExposedPerProcess(t *testing.T) {
	pl := NewPlatform()
	h := pl.AddHost("h", 1e9, 0)
	e := NewEngine(pl)
	e.Spawn(h, "good", func(p *Proc) error { return nil })
	e.Spawn(h, "bad", func(p *Proc) error { return fmt.Errorf("injected fault") })
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("fault not surfaced: %v", err)
	}
	errs := e.Errors()
	if len(errs) != 2 || errs[0] != nil || errs[1] == nil {
		t.Fatalf("Errors() = %v", errs)
	}
}

// TestProcessPanicBecomesError: a body that panics — at once, or after
// several switches to its lane and back, a WAN turn among them on the
// sharded run — ends as "process X panicked: …" and takes nobody else down.
func TestProcessPanicBecomesError(t *testing.T) {
	pl := NewPlatform()
	h := pl.AddHost("h", 1e9, 0)
	e := NewEngine(pl)
	e.Spawn(h, "bad", func(p *Proc) error {
		panic("boom")
	})
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	for _, lanes := range []int{1, 0} {
		pl := Synthetic(8, 2, 0, 3)
		e := NewEngine(pl)
		e.SetLanes(lanes)
		procs := make([]*Proc, 8)
		for i := range procs {
			procs[i] = e.Spawn(pl.Hosts[i], fmt.Sprintf("p%d", i), func(p *Proc) error {
				p.Compute(1e5)
				p.Send(procs[(i+4)%8], 0, nil, 64)
				p.Recv(AnySource, 0)
				if i == 5 {
					panic("boom")
				}
				return nil
			})
		}
		_, err := e.Run()
		if want := 2 - lanes; e.Lanes() != want {
			t.Fatalf("SetLanes(%d): %d lanes, want %d", lanes, e.Lanes(), want)
		}
		if err == nil || err.Error() != "process p5: vgrid: process p5 panicked: boom" {
			t.Fatalf("SetLanes(%d): err = %v", lanes, err)
		}
		for i, perr := range e.Errors() {
			if (perr != nil) != (i == 5) {
				t.Errorf("SetLanes(%d): p%d: err = %v", lanes, i, perr)
			}
		}
	}
}

func TestNoRouteError(t *testing.T) {
	pl := NewPlatform()
	a := pl.AddHost("a", 1e9, 0)
	b := pl.AddHost("b", 1e9, 0)
	e := NewEngine(pl)
	var dst *Proc
	e.Spawn(a, "src", func(p *Proc) error {
		return p.Send(dst, 0, nil, 8)
	})
	dst = e.Spawn(b, "dst", func(p *Proc) error {
		p.Sleep(0.001)
		return nil
	})
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "no route") {
		t.Fatalf("missing route not reported: %v", err)
	}
}

func TestLoopbackSend(t *testing.T) {
	pl := NewPlatform()
	h := pl.AddHost("h", 1e9, 0)
	e := NewEngine(pl)
	var self *Proc
	self = e.Spawn(h, "self", func(p *Proc) error {
		if err := p.Send(self, 3, []float64{5}, 8); err != nil {
			return err
		}
		m := p.Recv(self.ID, 3)
		if m.Floats[0] != 5 {
			return errors.New("loopback payload lost")
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	pl, a, b := twoHostPlatform(0.001, 1e6)
	e := NewEngine(pl)
	var src, dst *Proc
	src = e.Spawn(a, "src", func(p *Proc) error {
		p.Compute(2e9)
		return p.Send(dst, 1, nil, 1000)
	})
	dst = e.Spawn(b, "dst", func(p *Proc) error {
		p.Recv(src.ID, 1)
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	stats := e.Stats()
	var sSrc, sDst Stats
	for _, s := range stats {
		switch s.Name {
		case "src":
			sSrc = s
		case "dst":
			sDst = s
		}
	}
	if sSrc.Flops != 2e9 || sSrc.BytesSent != 1000 || sSrc.MsgsSent != 1 {
		t.Fatalf("src stats: %+v", sSrc)
	}
	if sDst.BlockedTime <= 0 {
		t.Fatalf("dst should have blocked: %+v", sDst)
	}
}

func TestHeterogeneousSpeeds(t *testing.T) {
	// The same flop count takes proportionally longer on a slower host.
	pl := NewPlatform()
	fast := pl.AddHost("fast", 2.6e9, 0)
	slow := pl.AddHost("slow", 1.7e9, 0)
	e := NewEngine(pl)
	var tf, ts float64
	e.Spawn(fast, "f", func(p *Proc) error { p.Compute(1e9); tf = p.Now(); return nil })
	e.Spawn(slow, "s", func(p *Proc) error { p.Compute(1e9); ts = p.Now(); return nil })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !(ts > tf) {
		t.Fatalf("slow host not slower: fast=%v slow=%v", tf, ts)
	}
	if math.Abs(ts/tf-2.6/1.7) > 1e-9 {
		t.Fatalf("speed ratio wrong: %v", ts/tf)
	}
}
