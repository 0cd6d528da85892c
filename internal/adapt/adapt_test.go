package adapt

import (
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// checkPartition asserts the three partition invariants BalancedStarts has
// always promised: strictly monotone starts, non-empty bands, exact [0, n]
// cover.
func checkPartition(t *testing.T, n int, w []float64, starts []int) {
	t.Helper()
	if len(starts) != len(w)+1 {
		t.Fatalf("n=%d w=%v: got %d starts, want %d", n, w, len(starts), len(w)+1)
	}
	if starts[0] != 0 || starts[len(starts)-1] != n {
		t.Fatalf("n=%d w=%v: starts %v do not cover [0,%d]", n, w, starts, n)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			t.Fatalf("n=%d w=%v: empty band %d in starts %v", n, w, i-1, starts)
		}
	}
}

// TestStartsFromWeightsProperty drives the shared partitioning helper over
// randomized host-speed vectors (the property test the balance.go clamp
// loops deserved): any positive weights and any n ≥ len(w) must produce a
// strictly monotone, gap-free partition of [0, n].
func TestStartsFromWeightsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260809))
	for trial := 0; trial < 2000; trial++ {
		nb := 1 + rng.Intn(16)
		n := nb + rng.Intn(400)
		w := make([]float64, nb)
		for i := range w {
			// Speeds spanning six orders of magnitude exercise the collapse
			// clamps hard.
			w[i] = math10(rng.Float64()*6 - 3)
		}
		starts, err := StartsFromWeights(n, w)
		if err != nil {
			t.Fatalf("n=%d w=%v: %v", n, w, err)
		}
		checkPartition(t, n, w, starts)
	}
}

// math10 is 10^x without pulling in math just for the test's speed spread.
func math10(x float64) float64 {
	v := 1.0
	for x >= 1 {
		v *= 10
		x--
	}
	for x < 0 {
		v /= 10
		x++
	}
	return v * (1 + x*9/10) // monotone enough for a spread of magnitudes
}

// TestStartsFromWeightsClamps pins the two clamp loops directly: a weight
// vector that collapses leading bands forces the forward pass, and one that
// collapses trailing bands forces the backward pass after the n re-pin.
func TestStartsFromWeightsClamps(t *testing.T) {
	// Forward clamp: tiny weights first — integer truncation gives bands 0..2
	// zero rows until the forward pass pushes them to one row each.
	starts, err := StartsFromWeights(10, []float64{1e-9, 1e-9, 1e-9, 1})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, 10, []float64{1e-9, 1e-9, 1e-9, 1}, starts)
	for i := 0; i < 3; i++ {
		if starts[i+1]-starts[i] != 1 {
			t.Fatalf("forward clamp: band %d has %d rows in %v, want 1", i, starts[i+1]-starts[i], starts)
		}
	}
	// Backward clamp: tiny weights last — the forward pass rides past n and
	// the backward pass must pull the tail boundaries back under it.
	w := []float64{1, 1e-9, 1e-9, 1e-9}
	starts, err = StartsFromWeights(4, w)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, 4, w, starts)
	for i := range w {
		if starts[i+1]-starts[i] != 1 {
			t.Fatalf("backward clamp: band %d has %d rows in %v, want 1", i, starts[i+1]-starts[i], starts)
		}
	}
	// Degenerate inputs fail loudly instead of producing a broken partition.
	if _, err := StartsFromWeights(3, []float64{1, 1, 1, 1}); err == nil {
		t.Fatal("n < len(w) must fail")
	}
	if _, err := StartsFromWeights(10, []float64{1, 0}); err == nil {
		t.Fatal("non-positive weight must fail")
	}
}

// diagDominantCSR builds a small strictly diagonally dominant band matrix.
func diagDominantCSR(t *testing.T, n, band int, diag float64) *sparse.CSR {
	t.Helper()
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Append(i, i, diag)
		for j := i - band; j <= i+band; j++ {
			if j < 0 || j >= n || j == i {
				continue
			}
			coo.Append(i, j, -1)
		}
	}
	return coo.ToCSR()
}

// TestCheckStarts exercises the Theorem-1 proxy on both sides of the bound:
// a strongly dominant matrix passes with a ratio below one, and a weakly
// dominant one (margin smaller than the out-of-band mass) is rejected.
func TestCheckStarts(t *testing.T) {
	n := 40
	a := diagDominantCSR(t, n, 2, 10) // margin 10-4=6, rOut ≤ 2 → ratio ≤ 1/3
	starts := []int{0, 10, 20, 30, n}
	ratio, err := CheckStarts(a, starts, 1)
	if err != nil {
		t.Fatalf("dominant matrix rejected: %v", err)
	}
	if ratio <= 0 || ratio >= 1 {
		t.Fatalf("ratio %v, want in (0, 1)", ratio)
	}
	// Shrink the diagonal until in-band dominance fails: |a_ii|=3 < rIn=4.
	weak := diagDominantCSR(t, n, 2, 3)
	if _, err := CheckStarts(weak, starts, 1); err == nil {
		t.Fatal("non-dominant matrix must be rejected")
	}
	// Border case: in-band dominance holds on every row, but one boundary
	// row's out-of-band mass exceeds its margin, so the contraction ratio
	// crosses one and the proposal must be refused.
	coo := sparse.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		coo.Append(i, i, 3)
	}
	coo.Append(1, 0, -1)   // in-band for [0,2): margin 3−1 = 2
	coo.Append(1, 2, -1.5) // out-of-band mass 3 → ratio 1.5
	coo.Append(1, 3, -1.5)
	border := coo.ToCSR()
	if _, err := CheckStarts(border, []int{0, 2, 4}, 0); err == nil {
		t.Fatal("contraction ratio ≥ 1 must be rejected")
	}
}

// TestControllerRebalances feeds the controller a degraded-host window
// (stretch 8× on rank 1) and expects the slow rank's band to shrink; once
// the degradation persists and the split matches the effective speeds, the
// follow-up windows must propose nothing.
func TestControllerRebalances(t *testing.T) {
	c := NewController(0.1)
	n := 800
	cur := []int{0, 200, 400, 600, 800}
	window := func(starts []int, stretch []float64) []Observation {
		out := make([]Observation, len(stretch))
		for i := range out {
			rows := starts[i+1] - starts[i]
			nominal := float64(rows) / 200
			out[i] = Observation{
				Rank: i, Rows: rows, Speed: 1e9,
				Nominal: nominal, Busy: nominal * stretch[i], Wait: 0.5,
			}
		}
		return out
	}
	stretch := []float64{1, 8, 1, 1}
	p, changed, err := c.Propose(n, cur, 2, window(cur, stretch))
	if err != nil {
		t.Fatal(err)
	}
	if !changed || p.Starts == nil {
		t.Fatalf("degraded window proposed no change: %+v", p)
	}
	slow := p.Starts[2] - p.Starts[1]
	if slow >= 200 {
		t.Fatalf("slow rank kept %d rows, want fewer than 200 (starts %v)", slow, p.Starts)
	}
	checkPartition(t, n, []float64{1, 1, 1, 1}, p.Starts)
	if p.MaxDelta <= 0 {
		t.Fatalf("MaxDelta = %d, want positive", p.MaxDelta)
	}
	// The degradation persists: feed stable windows on the applied split.
	// The smoothed stretch converges to the true factors and every further
	// proposal falls inside the hysteresis band.
	cur = p.Starts
	for k := 0; k < 4; k++ {
		var ch bool
		p, ch, err = c.Propose(n, cur, p.Overlap, window(cur, stretch))
		if err != nil {
			t.Fatal(err)
		}
		if ch && p.Starts != nil {
			cur = p.Starts
		}
	}
	if p.Starts != nil {
		t.Fatalf("controller did not settle: still proposing %v over %v", p.Starts, cur)
	}
}

// TestControllerHealthyHeterogeneousStays: on healthy hosts (stretch exactly
// 1 everywhere) a split already proportional to the nameplate speeds is a
// fixed point — the controller must never propose, whatever the speed
// spread.
func TestControllerHealthyHeterogeneousStays(t *testing.T) {
	c := NewController(0.1)
	n := 700
	speeds := []float64{1e9, 2e9, 4e9}
	cur, err := StartsFromWeights(n, speeds)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		obs := make([]Observation, len(speeds))
		for i := range obs {
			rows := cur[i+1] - cur[i]
			nominal := float64(rows) / speeds[i]
			obs[i] = Observation{Rank: i, Rows: rows, Speed: speeds[i],
				Nominal: nominal, Busy: nominal, Wait: nominal}
		}
		p, changed, err := c.Propose(n, cur, 4, obs)
		if err != nil {
			t.Fatal(err)
		}
		if changed {
			t.Fatalf("window %d: healthy platform proposed %+v", k, p)
		}
	}
}

// TestControllerOverlapTuner pins the tuner's direction: wait-dominated
// windows grow the overlap (the redundant rows hide under the exchange),
// compute-bound windows shrink it, and the dead band holds it.
func TestControllerOverlapTuner(t *testing.T) {
	mk := func(wait float64) []Observation {
		return []Observation{
			{Rank: 0, Rows: 50, Speed: 1e9, Nominal: 1, Busy: 1, Wait: wait},
			{Rank: 1, Rows: 50, Speed: 1e9, Nominal: 1, Busy: 1, Wait: wait},
		}
	}
	cases := []struct {
		wait         float64
		cur, overlap int
	}{
		{99, 4, 5},   // wait share ≈ 0.99 → grow
		{99, 8, 8},   // capped at maxOverlap
		{0.01, 4, 3}, // compute-bound → shrink
		{0.01, 0, 0}, // floored at zero
		{1, 4, 4},    // share 0.5, dead band → hold
	}
	for _, tc := range cases {
		c := NewController(0.5)
		p, _, err := c.Propose(100, []int{0, 50, 100}, tc.cur, mk(tc.wait))
		if err != nil {
			t.Fatal(err)
		}
		if p.Overlap != tc.overlap {
			t.Fatalf("wait %v cur %d: overlap %d, want %d", tc.wait, tc.cur, p.Overlap, tc.overlap)
		}
	}
}
