package main

import (
	"math"
	"testing"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		// Two overlapping children cover [1,5] once, not twice.
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 5},
		// A nested grandchild is subtracted from its parent only.
		{ID: 4, Parent: 2, Name: "a1", Start: 2, End: 3},
		// A child contained in an earlier one adds no coverage.
		{ID: 5, Parent: 1, Name: "c", Start: 3.5, End: 4.5},
		// A child running past its parent's end is clipped to it.
		{ID: 6, Parent: 1, Name: "d", Start: 9, End: 12},
		// Another root is left alone.
		{ID: 7, Name: "other", Start: 20, End: 21},
	}
	computeSelf(spans)
	want := map[string]float64{
		"root":  10 - (4 + 1), // [1,5] and [9,10]
		"a":     3 - 1,
		"b":     2,
		"a1":    1,
		"c":     1,
		"d":     3,
		"other": 1,
	}
	for _, s := range spans {
		if math.Abs(s.Self-want[s.Name]) > 1e-12 {
			t.Errorf("span %s: self time %g, want %g", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestSpanRecorder(t *testing.T) {
	var off *spanRec // the untraced pass: every call is a no-op
	off.setRep(3)
	off.end(off.start("x", 0))
	if got := off.perRep("x"); got != nil {
		t.Fatalf("nil recorder returned spans: %v", got)
	}

	r := newSpanRec()
	for rep := 1; rep <= 2; rep++ {
		r.setRep(rep)
		root := r.start("root", 0)
		r.end(r.start("leaf", root))
		r.end(r.start("leaf", root))
		r.end(root)
	}
	if got := r.perRep("leaf"); len(got) != 2 {
		t.Fatalf("perRep: %d repetitions, want 2", len(got))
	}
	for _, s := range r.spans {
		if s.Rep < 1 || s.Rep > 2 || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
		if s.Name == "leaf" && r.spans[s.Parent-1].Rep != s.Rep {
			t.Errorf("span %d does not share its parent's repetition id", s.ID)
		}
	}
}
