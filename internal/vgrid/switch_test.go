package vgrid

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkProcSwitch is ROADMAP item 3's step 1 as a checked-in measurement:
// the host price of one scheduler↔process round trip with N = 1000 parked
// processes passing one token, which is what a vgrid commit pays before it
// does any work. "chan" is the handoff the engine used up to PR 21 (a
// goroutine per process parked on its own resume channel, yielding on a
// shared channel) and lives only here, as the reference; "pull" is
// pullProc, what Engine.Spawn uses. One op is one round trip. EXPERIMENTS.md
// ("Kernel price — process switch") quotes this host's numbers.
func BenchmarkProcSwitch(b *testing.B) {
	const n = 1000
	b.Run("chan", func(b *testing.B) {
		yieldCh := make(chan int)
		resume := make([]chan bool, n)
		for i := range resume {
			resume[i] = make(chan bool)
			go func() {
				for <-resume[i] {
					yieldCh <- i
				}
			}()
		}
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			resume[k%n] <- true
			<-yieldCh
		}
		b.StopTimer()
		for _, c := range resume {
			c <- false
		}
	})
	b.Run("pull", func(b *testing.B) {
		next := make([]func() (struct{}, bool), n)
		stop := make([]func(), n)
		for i := range next {
			next[i], stop[i] = pullProc(func(yield func(struct{}) bool) {
				for yield(struct{}{}) {
				}
			})
		}
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			next[k%n]()
		}
		b.StopTimer()
		for _, s := range stop {
			s()
		}
	})
}

// spawnRing spawns the grid1000_events ring of the benchmark on every host of
// pl: each round a process computes (costs spread so that keys interleave
// across hosts), sends 256 bytes to its successor and receives from its
// predecessor.
func spawnRing(e *Engine, pl *Platform, rounds int) {
	n := len(pl.Hosts)
	procs := make([]*Proc, n)
	for i := range procs {
		procs[i] = e.Spawn(pl.Hosts[i], fmt.Sprintf("ring%d", i), func(p *Proc) error {
			next, prev := procs[(i+1)%n], (i+n-1)%n
			for r := 0; r < rounds; r++ {
				p.Compute(1e5 * float64(1+(i*31+r*17)%97))
				if err := p.Send(next, r, nil, 256); err != nil {
					return err
				}
				p.Recv(prev, r)
			}
			return nil
		})
	}
}

// BenchmarkRingCommit prices one commit of the event core alone: the
// grid1000_events ring (1000 hosts, 100 clusters, 34 rounds, recorder off) on
// one lane and on one lane per cluster, reported as ns/commit (Engine.Run's
// host time over its commits; platform construction and Spawn excluded).
// EXPERIMENTS.md ("Host price — commit path") quotes this host's numbers.
func BenchmarkRingCommit(b *testing.B) {
	for _, c := range []struct {
		name  string
		lanes int
	}{{"single", 1}, {"sharded", 0}} {
		b.Run(c.name, func(b *testing.B) {
			var commits int64
			var ns time.Duration
			for k := 0; k < b.N; k++ {
				pl := Synthetic(1000, 100, 0.3, 1)
				e := NewEngine(pl)
				e.SetLanes(c.lanes)
				spawnRing(e, pl, 34)
				t0 := time.Now()
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
				ns += time.Since(t0)
				n, _ := e.EventStats()
				commits += n
			}
			b.ReportMetric(float64(ns.Nanoseconds())/float64(commits), "ns/commit")
		})
	}
}
