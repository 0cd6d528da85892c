package vgrid

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// faultTestPlatform builds two 3-host sites joined by a shared "wan" link.
func faultTestPlatform() (*Platform, []*Host) {
	pl := NewPlatform()
	var hosts []*Host
	var nics []*Link
	for i := 0; i < 6; i++ {
		site := "s1"
		if i >= 3 {
			site = "s2"
		}
		hosts = append(hosts, pl.AddHost(site+"-"+string(rune('a'+i)), 1e9, 0))
		nics = append(nics, NewLink("nic"+string(rune('a'+i)), 25e-6, 1.25e7))
	}
	wan := NewLink("wan", 5e-3, 2.5e6)
	for i := range hosts {
		for j := i + 1; j < len(hosts); j++ {
			if (i < 3) == (j < 3) {
				pl.SetRoute(hosts[i], hosts[j], nics[i], nics[j])
			} else {
				pl.SetRoute(hosts[i], hosts[j], nics[i], wan, nics[j])
			}
		}
	}
	return pl, hosts
}

// faultRun is what runFaultScenario reports of one run.
type faultRun struct {
	// rec holds the run's obs record and record its rendering
	// (recordString).
	rec    *obs.Recorder
	record string
	// received counts each process's messages, waited those of them a
	// blocked receive took, and dropped the sends SendFate reported lost.
	received        []int
	waited, dropped int
	stats           []Stats
	end             float64
}

// runFaultScenario runs a cross-site message/compute workload under the given
// fault plan with an obs recorder attached: each process polls for messages
// while it works, taking one with a blocking receive every fourth step, and
// finally drains what is still in flight with blocking receives.
func runFaultScenario(t *testing.T, workers int, plan *FaultPlan) faultRun {
	t.Helper()
	pl, hosts := faultTestPlatform()
	e := NewEngine(pl)
	e.SetWorkers(workers)
	if plan != nil {
		e.SetFaultPlan(plan)
	}
	r := faultRun{rec: &obs.Recorder{}}
	e.Observe(r.rec)

	const nproc = 6
	r.received = make([]int, nproc)
	waited := make([]int, nproc)
	dropped := make([]int, nproc)
	procs := make([]*Proc, nproc)
	for i := 0; i < nproc; i++ {
		i := i
		procs[i] = e.Spawn(hosts[i], fmt.Sprintf("p%d", i), func(p *Proc) error {
			acc := 0.0
			for it := 0; it < 20; it++ {
				p.ComputeFunc(5e7, func() { acc = acc*1.5 + float64(it) })
				if it%5 == 0 {
					p.ComputeDeferred(2e7, func() float64 { acc *= 1.01; return 2e7 })
				}
				peer := procs[(i+3)%nproc]
				ok, err := p.SendFate(peer, 7, nil, 10000)
				if err != nil {
					return err
				}
				if !ok {
					dropped[i]++
				}
				if it%4 == 3 && p.RecvTimeout(AnySource, 7, 5e-3) != nil {
					r.received[i]++
					waited[i]++
				}
				for p.TryRecv(AnySource, 7) != nil {
					r.received[i]++
				}
				p.Sleep(1e-3)
			}
			for p.RecvTimeout(AnySource, 7, 0.05) != nil {
				r.received[i]++
				waited[i]++
			}
			return nil
		})
	}
	var err error
	if r.end, err = e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range waited {
		r.waited += waited[i]
		r.dropped += dropped[i]
	}
	r.record, r.stats = recordString(r.rec), e.Stats()
	return r
}

func fullFaultPlan() *FaultPlan {
	return NewFaultPlan(42).
		DropOnLink("wan", 0, math.Inf(1), 0.2).
		DegradeLink("wan", 0.3, 0.8, 10, 0.1).
		CrashHost("s1-b", 0.5, 0.9).
		DegradeHost("s2-d", 0.2, 1.1, 3)
}

// TestFaultPlanDeterministicAcrossWorkers extends the scheduler determinism
// invariant to faulted runs: drops, outages and degradation windows charge
// the virtual clock only, so the obs record, the side effects and the end
// time must be byte-identical for 1 and 4 workers.
func TestFaultPlanDeterministicAcrossWorkers(t *testing.T) {
	r1 := runFaultScenario(t, 1, fullFaultPlan())
	r4 := runFaultScenario(t, 4, fullFaultPlan())
	sameFaultRun(t, "4 workers", r4, r1)
	if r1.dropped == 0 || !strings.Contains(r1.record, "Note:loss") {
		t.Fatal("no drop events in the faulted record")
	}
}

// sameFaultRun fails the test unless got repeats want exactly.
func sameFaultRun(t *testing.T, what string, got, want faultRun) {
	t.Helper()
	if got.record != want.record {
		t.Fatalf("%s: obs record differs:\n--- want ---\n%s--- got ---\n%s", what, want.record, got.record)
	}
	if got.end != want.end {
		t.Fatalf("%s: end time differs: %v vs %v", what, got.end, want.end)
	}
	if !reflect.DeepEqual(got.received, want.received) || !reflect.DeepEqual(got.stats, want.stats) {
		t.Fatalf("%s: side effects differ: received %v vs %v, stats %+v vs %+v", what, got.received, want.received, got.stats, want.stats)
	}
}

// TestRecorderCapturesEvents pins that the obs record is the whole record of
// a faulted run: one send span per message sent, one lossy net span per
// send SendFate reported lost, one caused wait span per message a blocked
// receive took, and exactly the plan's host milestones as marks.
func TestRecorderCapturesEvents(t *testing.T) {
	r := runFaultScenario(t, 2, fullFaultPlan())
	var sends, drops, delivered int
	var marks []string
	for _, s := range r.rec.Spans() {
		switch {
		case s.Cat == obs.CatSend:
			sends++
		case s.Cat == obs.CatNet && s.Note != "":
			drops++
		case s.Cat == obs.CatWait && s.Cause != 0:
			delivered++
		case s.Cat == obs.CatMark:
			marks = append(marks, fmt.Sprintf("%g %s %s", s.Start, s.Track, s.Name))
		}
	}
	var sent int64
	for _, st := range r.stats {
		sent += st.MsgsSent
	}
	if int64(sends) != sent {
		t.Errorf("%d send spans for %d messages sent", sends, sent)
	}
	if drops != r.dropped || drops == 0 {
		t.Errorf("%d lossy net spans for %d sends reported lost", drops, r.dropped)
	}
	t.Logf("%d sends, %d lost, %d blocking deliveries", sends, drops, delivered)
	if delivered != r.waited || delivered == 0 {
		t.Errorf("%d caused wait spans for %d blocking deliveries", delivered, r.waited)
	}
	want := []string{"0.2 s2-d degrade", "0.5 s1-b crash", "0.9 s1-b restart", "1.1 s2-d recover"}
	if !reflect.DeepEqual(marks, want) {
		t.Errorf("marks %q, want the plan's milestones %q", marks, want)
	}
}

// TestZeroFaultPlanIdenticalToNoPlan: installing an empty plan must not
// perturb the schedule in any way — the obs record is byte-identical to a
// run with no plan at all.
func TestZeroFaultPlanIdenticalToNoPlan(t *testing.T) {
	none := runFaultScenario(t, 2, nil)
	zero := runFaultScenario(t, 2, NewFaultPlan(99))
	sameFaultRun(t, "zero-fault plan", zero, none)
}

// TestDropOnLinkRate: with a 30% drop rule, the realized loss fraction over
// many sends must be near 30%, and every send is either delivered or
// recorded as dropped.
func TestDropOnLinkRate(t *testing.T) {
	pl := NewPlatform()
	a := pl.AddHost("a", 1e9, 0)
	b := pl.AddHost("b", 1e9, 0)
	pl.SetRoute(a, b, NewLink("lossy", 1e-5, 1e9))
	e := NewEngine(pl)
	e.SetFaultPlan(NewFaultPlan(3).DropOnLink("lossy", 0, math.Inf(1), 0.3))
	rec := &obs.Recorder{}
	e.Observe(rec)
	const total = 2000
	delivered := 0
	e.Spawn(a, "sender", func(p *Proc) error {
		dst := e.procs[1]
		for i := 0; i < total; i++ {
			ok, err := p.SendFate(dst, 1, nil, 8)
			if err != nil {
				return err
			}
			if ok {
				delivered++
			}
		}
		return nil
	})
	e.Spawn(b, "sink", func(p *Proc) error {
		p.Sleep(1)
		for p.TryRecv(AnySource, AnyTag) != nil {
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	drops := 0
	for _, s := range rec.Spans() {
		if s.Cat == obs.CatNet && s.Note != "" {
			drops++
		}
	}
	if delivered+drops != total {
		t.Fatalf("delivered %d + dropped %d != %d sent", delivered, drops, total)
	}
	frac := float64(drops) / total
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("realized drop rate %.3f far from 0.3", frac)
	}
}

// TestHostOutagePausesWork: work in flight freezes with the host and resumes
// on restart, so a 1 s compute spanning a 0.5 s outage finishes at 1.5 s.
func TestHostOutagePausesWork(t *testing.T) {
	pl := NewPlatform()
	h := pl.AddHost("h", 1e9, 0)
	e := NewEngine(pl)
	e.SetFaultPlan(NewFaultPlan(1).CrashHost("h", 0.3, 0.8))
	e.Spawn(h, "p", func(p *Proc) error {
		p.Compute(1e9)
		return nil
	})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-1.5) > 1e-12 {
		t.Fatalf("end = %v, want 1.5 (1 s work + 0.5 s outage)", end)
	}
}

// TestHostSlowdownStretchesWork: a factor-2 window over part of a compute
// segment stretches only the covered portion, BusyTime records the stretched
// clock time while ComputeTime stays nominal.
func TestHostSlowdownStretchesWork(t *testing.T) {
	pl := NewPlatform()
	h := pl.AddHost("h", 1e9, 0)
	e := NewEngine(pl)
	// 1 s of nominal work; [0.3, 0.8) runs 2× slower: 0.3 s done before the
	// window, 0.25 s of work inside it (0.5 s of clock), 0.45 s after.
	e.SetFaultPlan(NewFaultPlan(1).DegradeHost("h", 0.3, 0.8, 2))
	p := e.Spawn(h, "p", func(p *Proc) error {
		p.Compute(1e9)
		return nil
	})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-1.25) > 1e-12 {
		t.Fatalf("end = %v, want 1.25 (1 s work, 0.5 s window at 2×)", end)
	}
	if math.Abs(p.ComputeTime-1.0) > 1e-12 {
		t.Fatalf("ComputeTime = %v, want nominal 1.0", p.ComputeTime)
	}
	if math.Abs(p.BusyTime-1.25) > 1e-12 {
		t.Fatalf("BusyTime = %v, want stretched 1.25", p.BusyTime)
	}
}

// TestHostSlowdownComposesWithOutage: a permanent slowdown and an outage
// window on the same host compose — work stretches outside the outage and
// freezes inside it.
func TestHostSlowdownComposesWithOutage(t *testing.T) {
	pl := NewPlatform()
	h := pl.AddHost("h", 1e9, 0)
	e := NewEngine(pl)
	// 0.2 s of nominal work at 4× slower, frozen during [0.5, 1.0):
	// 0.125 s of work done by t=0.5, outage to 1.0, remaining 0.075 s of work
	// takes 0.3 s → end 1.3.
	e.SetFaultPlan(NewFaultPlan(1).
		DegradeHost("h", 0, math.Inf(1), 4).
		CrashHost("h", 0.5, 1.0))
	p := e.Spawn(h, "p", func(p *Proc) error {
		p.Compute(2e8)
		return nil
	})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-1.3) > 1e-12 {
		t.Fatalf("end = %v, want 1.3 (stretched work frozen across the outage)", end)
	}
	if math.Abs(p.BusyTime-1.3) > 1e-12 {
		t.Fatalf("BusyTime = %v, want 1.3", p.BusyTime)
	}
}

// TestHostSlowdownOverlapMultiplies: two concurrent windows compose
// multiplicatively (2× and 3× → 6×).
func TestHostSlowdownOverlapMultiplies(t *testing.T) {
	pl := NewPlatform()
	h := pl.AddHost("h", 1e9, 0)
	e := NewEngine(pl)
	e.SetFaultPlan(NewFaultPlan(1).
		DegradeHost("h", 0, 1, 2).
		DegradeHost("h", 0, 1, 3))
	e.Spawn(h, "p", func(p *Proc) error {
		p.Compute(1e8) // 0.1 s nominal → 0.6 s at 6×
		return nil
	})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-0.6) > 1e-12 {
		t.Fatalf("end = %v, want 0.6 (0.1 s work at 6×)", end)
	}
}

// TestHostSlowdownRejectsSpeedup: factors below one (a speedup) fail at Run.
func TestHostSlowdownRejectsSpeedup(t *testing.T) {
	pl := NewPlatform()
	a := pl.AddHost("a", 1e9, 0)
	e := NewEngine(pl)
	e.SetFaultPlan(NewFaultPlan(1).DegradeHost("a", 0, 1, 0.5))
	e.Spawn(a, "p", func(p *Proc) error { return nil })
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "factor") {
		t.Fatalf("want factor validation error, got %v", err)
	}
}

// TestSendToDownHostDropped: a message whose arrival falls inside the
// destination's outage window is lost, and SendFate reports it.
func TestSendToDownHostDropped(t *testing.T) {
	pl := NewPlatform()
	a := pl.AddHost("a", 1e9, 0)
	b := pl.AddHost("b", 1e9, 0)
	pl.SetRoute(a, b, NewLink("l", 1e-4, 1e9))
	e := NewEngine(pl)
	e.SetFaultPlan(NewFaultPlan(1).CrashHost("b", 0, 2))
	var early, late bool
	e.Spawn(a, "sender", func(p *Proc) error {
		dst := e.procs[1]
		early, _ = p.SendFate(dst, 1, nil, 8) // arrives ~1e-4, b is down
		p.Sleep(3)
		late, _ = p.SendFate(dst, 1, nil, 8) // arrives ~3.0001, b is back
		return nil
	})
	e.Spawn(b, "recv", func(p *Proc) error {
		m := p.Recv(AnySource, AnyTag)
		if m.Arrival < 2 {
			t.Errorf("received a message that should have been dropped (arrival %v)", m.Arrival)
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if early {
		t.Fatal("send into the outage window reported delivered")
	}
	if !late {
		t.Fatal("send after restart reported lost")
	}
}

// TestRecvTimeout: the deadline fires in virtual time when no match arrives,
// and a message beating the deadline is delivered normally.
func TestRecvTimeout(t *testing.T) {
	pl := NewPlatform()
	a := pl.AddHost("a", 1e9, 0)
	b := pl.AddHost("b", 1e9, 0)
	pl.SetRoute(a, b, NewLink("l", 5e-3, 1e9))
	e := NewEngine(pl)
	e.Spawn(a, "sender", func(p *Proc) error {
		p.Sleep(0.01)
		return p.Send(e.procs[1], 1, nil, 8)
	})
	e.Spawn(b, "recv", func(p *Proc) error {
		if m := p.RecvTimeout(AnySource, 1, 0.001); m != nil {
			t.Error("timeout receive returned a message before any was sent")
		}
		if now := p.Now(); math.Abs(now-0.001) > 1e-12 {
			t.Errorf("clock after timeout = %v, want 0.001", now)
		}
		m := p.RecvTimeout(AnySource, 1, 10)
		if m == nil {
			t.Error("receive with a generous deadline missed the message")
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLinkDegradationWindow: inside the window the transfer pays the scaled
// latency and bandwidth; outside it the link is healthy again.
func TestLinkDegradationWindow(t *testing.T) {
	pl := NewPlatform()
	a := pl.AddHost("a", 1e9, 0)
	b := pl.AddHost("b", 1e9, 0)
	pl.SetRoute(a, b, NewLink("l", 1e-3, 1e6))
	e := NewEngine(pl)
	// During [0, 1): latency ×10, bandwidth ×0.1.
	e.SetFaultPlan(NewFaultPlan(1).DegradeLink("l", 0, 1, 10, 0.1))
	var slow, fast float64
	e.Spawn(a, "sender", func(p *Proc) error {
		dst := e.procs[1]
		if err := p.Send(dst, 1, nil, 1000); err != nil {
			return err
		}
		m1 := p.Now() // push time at degraded bandwidth
		p.Sleep(2 - m1)
		if err := p.Send(dst, 2, nil, 1000); err != nil {
			return err
		}
		fast = p.Now() - 2
		slow = m1
		return nil
	})
	e.Spawn(b, "recv", func(p *Proc) error {
		m := p.Recv(AnySource, 1)
		if want := 0.01 + 0.01; math.Abs(m.Arrival-want) > 1e-9 {
			t.Errorf("degraded arrival = %v, want %v (10 ms push + 10 ms latency)", m.Arrival, want)
		}
		m = p.Recv(AnySource, 2)
		if want := 2 + 0.001 + 0.001; math.Abs(m.Arrival-want) > 1e-9 {
			t.Errorf("healthy arrival = %v, want %v", m.Arrival, want)
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if slow <= fast*5 {
		t.Fatalf("degraded push %v not clearly slower than healthy %v", slow, fast)
	}
}

// TestPermanentCrashDiagnostic: a rank waiting on a permanently crashed host
// surfaces as a deadlock with the dead host called out.
func TestPermanentCrashDiagnostic(t *testing.T) {
	pl := NewPlatform()
	a := pl.AddHost("a", 1e9, 0)
	b := pl.AddHost("b", 1e9, 0)
	pl.SetRoute(a, b, NewLink("l", 1e-4, 1e9))
	e := NewEngine(pl)
	e.SetFaultPlan(NewFaultPlan(1).CrashHost("b", 0.5, math.Inf(1)))
	e.Spawn(a, "waiter", func(p *Proc) error {
		p.Recv(AnySource, 1) // never satisfied: the sender dies first
		return nil
	})
	e.Spawn(b, "victim", func(p *Proc) error {
		p.Sleep(1) // resumes inside the permanent outage: never
		return p.Send(e.procs[0], 1, nil, 8)
	})
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "victim (host down)") {
		t.Fatalf("want deadlock naming the downed host, got %v", err)
	}
}

// TestFaultPlanUnknownNames: referencing a host or link the platform does not
// have fails loudly at Run.
func TestFaultPlanUnknownNames(t *testing.T) {
	for _, plan := range []*FaultPlan{
		NewFaultPlan(1).CrashHost("nope", 0, 1),
		NewFaultPlan(1).DropOnLink("nope", 0, 1, 0.5),
	} {
		pl := NewPlatform()
		a := pl.AddHost("a", 1e9, 0)
		b := pl.AddHost("b", 1e9, 0)
		pl.SetRoute(a, b, NewLink("l", 1e-4, 1e9))
		e := NewEngine(pl)
		e.SetFaultPlan(plan)
		e.Spawn(a, "p", func(p *Proc) error { return nil })
		if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Fatalf("want unknown-name error, got %v", err)
		}
	}
}
