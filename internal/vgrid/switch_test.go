package vgrid

import "testing"

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
