package detect

import (
	"fmt"
	"testing"

	"repro/internal/mp"
	"repro/internal/vgrid"
)

// runWorld drives n simulated workers that each iterate, flipping to locally
// converged at their own iteration threshold (and back to unconverged inside
// their relapse window), and stop when the detector commits. It returns the
// iteration each rank stopped at and the root's completed verification
// rounds.
func runWorld(t *testing.T, n int, convergeAt []int, relapse map[int][2]int) (stops []int, rounds int) {
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
	stops = make([]int, n)
	mp.Launch(e, hosts, "w", func(c *mp.Comm) error {
		det := NewDecentralized(c)
		r := c.Rank()
		for iter := 1; iter <= 100000; iter++ {
			c.Compute(1e5) // some local work per iteration
			local := iter >= convergeAt[r]
			if w, ok := relapse[r]; ok && iter >= w[0] && iter < w[1] {
				local = false
			}
			stop, err := det.Step(local)
			if err != nil {
				return err
			}
			if stop {
				stops[r] = iter
				if r == 0 {
					rounds = det.Detections
				}
				return nil
			}
		}
		return fmt.Errorf("rank %d never stopped", r)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return stops, rounds
}

func TestDecentralizedBasic(t *testing.T) {
	convergeAt := []int{5, 40, 12, 30, 25}
	stops, _ := runWorld(t, 5, convergeAt, nil)
	for r, s := range stops {
		if s == 0 {
			t.Fatalf("rank %d did not stop", r)
		}
		// No rank may stop before the slowest rank converged locally at
		// iteration 40 (iterations are in near lock-step time here).
		if s < 40 {
			t.Fatalf("rank %d stopped at iteration %d, before global convergence at 40", r, s)
		}
	}
}

func TestDecentralizedRelapse(t *testing.T) {
	// Rank 2 shows a one-iteration blip of local convergence at iteration
	// 10, immediately relapses until iteration 120, then recovers. Any
	// verification started on the blip must fail; commitment may only
	// happen after the relapse ends.
	convergeAt := []int{10, 10, 10, 10}
	relapse := map[int][2]int{2: {11, 120}}
	stops, _ := runWorld(t, 4, convergeAt, relapse)
	for r, s := range stops {
		if s < 120 {
			t.Fatalf("rank %d stopped at %d, inside the relapse window", r, s)
		}
	}
}

func TestDecentralizedSingleRank(t *testing.T) {
	stops, _ := runWorld(t, 1, []int{7}, nil)
	if stops[0] != 7 {
		t.Fatalf("single rank stopped at %d, want 7", stops[0])
	}
}

func TestDecentralizedTwoRanks(t *testing.T) {
	stops, _ := runWorld(t, 2, []int{3, 60}, nil)
	for r, s := range stops {
		if s < 60 {
			t.Fatalf("rank %d stopped at %d before rank 1 converged", r, s)
		}
	}
}

func TestManyRanksDeepTree(t *testing.T) {
	// 13 ranks gives a tree of depth 3; all must stop after the slowest.
	n := 13
	convergeAt := make([]int, n)
	for i := range convergeAt {
		convergeAt[i] = 5 + 7*i
	}
	stops, _ := runWorld(t, n, convergeAt, nil)
	worst := convergeAt[n-1]
	for r, s := range stops {
		if s < worst {
			t.Fatalf("rank %d stopped at %d, before slowest convergence %d", r, s, worst)
		}
	}
}

func TestDetectionsCounted(t *testing.T) {
	// Every rank converges at iteration 5 and the root's first wave leaves at
	// iteration 6; rank 1 relapses from iteration 6 to 80, so that wave finds
	// it unconverged and fails, and only a second round can commit.
	stops, rounds := runWorld(t, 3, []int{5, 5, 5}, map[int][2]int{1: {6, 80}})
	for r, s := range stops {
		if s < 80 {
			t.Fatalf("rank %d stopped at %d, inside the relapse window", r, s)
		}
	}
	if rounds < 2 {
		t.Fatalf("root completed %d verification rounds, want at least 2", rounds)
	}
}
