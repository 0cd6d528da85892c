package main

import "time"

// The benchmark runs on a few cores of a shared host whose speed changes by
// half within seconds and stays changed for minutes: a fixed single-threaded
// loop that takes 7 ms at one moment takes 11 ms at the next, with nothing
// else running in the machine. No statistic of raw repetition times is steady
// there (README, "Observed spread"). So host time is measured against a
// reference: a fixed unit of work of the benchmark's own, which calls nothing
// of the program, runs between the repetitions, and a repetition's time is
// divided by how slow the host ran the unit around it.

// refNominal is the reference unit's time on the quiet host this benchmark
// was written on. wall_s and setup_s are host seconds at the speed at which
// the unit takes exactly this long.
const refNominal = 3e-3

// Slots of reference units around a repetition: at least refMinSlot long, and
// refShare of the repetition they follow.
const (
	refMinSlot = 9 * time.Millisecond
	refShare   = 0.1
)

// reference is the unit of work host speed is measured with: a dependent
// floating-point chain over 512 KB, a sparse-product-like gather over 4 MB,
// and goroutine handoffs over unbuffered channels; about a third of the unit
// each, the mix of the workloads' own work (kernels and scheduler handoffs).
// It allocates nothing once built.
type reference struct {
	chain   []float64
	x, vals []float64
	idx     []int32
	y       []float64
	ping    chan int
	pong    chan int
	sink    float64
}

func newReference() *reference {
	r := &reference{
		chain: make([]float64, 1<<16),
		x:     make([]float64, 1<<17),
		vals:  make([]float64, 1<<18),
		idx:   make([]int32, 1<<18),
		y:     make([]float64, 1<<12),
		ping:  make(chan int),
		pong:  make(chan int),
	}
	s := uint32(12345)
	for i := range r.idx {
		s = s*1664525 + 1013904223
		r.idx[i] = int32(s >> 8 & (1<<17 - 1))
		r.vals[i] = 1e-3
	}
	for i := range r.x {
		r.x[i] = 1
	}
	go func() {
		for v := range r.ping {
			r.pong <- v + 1
		}
		close(r.pong)
	}()
	return r
}

// close ends the handoff partner and waits for it.
func (r *reference) close() {
	close(r.ping)
	<-r.pong
}

// unit runs the reference unit once.
func (r *reference) unit() {
	s := 0.0
	for pass := 0; pass < 16; pass++ {
		for i, v := range r.chain {
			s += v * 1.0000001
			r.chain[i] = s * 1e-9
		}
	}
	per := len(r.vals) / len(r.y)
	k := 0
	for i := range r.y {
		t := 0.0
		for j := 0; j < per; j++ {
			t += r.vals[k] * r.x[r.idx[k]]
			k++
		}
		r.y[i] = t
	}
	for i := 0; i < 3000; i++ {
		r.ping <- i
		<-r.pong
	}
	r.sink += s + r.y[0]
}

// sample runs whole units for at least d and returns the mean host seconds
// of one.
func (r *reference) sample(d time.Duration) float64 {
	d = max(d, refMinSlot)
	t0 := time.Now()
	n := 0
	for {
		r.unit()
		n++
		if el := time.Since(t0); el >= d {
			return el.Seconds() / float64(n)
		}
	}
}

// refSlot is the length of the slot of reference units that follows a
// repetition, or a set-up, that took rep.
func refSlot(rep time.Duration) time.Duration {
	return time.Duration(refShare * float64(rep))
}
