package vgrid

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestParseFaultSchedules pins the -crash / -slow grammar: what a schedule
// adds to the plan, and the diagnostic of every malformed entry.
func TestParseFaultSchedules(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name, crash, slow string
		outages           []HostOutage
		slowdowns         []HostSlowdown
		err               string
	}{
		{name: "empty schedules"},
		{name: "one crash", crash: "h1@0.5:2",
			outages: []HostOutage{{Host: "h1", From: 0.5, Until: 2}}},
		{name: "permanent crash", crash: "h1@1e-3:inf",
			outages: []HostOutage{{Host: "h1", From: 1e-3, Until: inf}}},
		{name: "empty entries and a trailing comma", crash: ",h1@0:1,,h2@3:inf,",
			outages: []HostOutage{{Host: "h1", From: 0, Until: 1}, {Host: "h2", From: 3, Until: inf}}},
		{name: "slowdowns", slow: "h1@0:inf:4,h2@1:2:1.5,",
			slowdowns: []HostSlowdown{{Host: "h1", From: 0, Until: inf, Factor: 4}, {Host: "h2", From: 1, Until: 2, Factor: 1.5}}},
		{name: "crash without @", crash: "h1", err: `crash spec "h1": want host@from:until`},
		{name: "crash without until", crash: "h1@1", err: `crash spec "h1@1": want from:until`},
		{name: "crash with a bad start", crash: "h1@x:1", err: `crash spec "h1@x:1": bad start time: `},
		{name: "crash with a bad end", crash: "h1@0:never", err: `crash spec "h1@0:never": bad end time: `},
		{name: "crash with a nan start", crash: "h1@nan:1", err: `crash spec "h1@nan:1": bad start time: "nan" is not a number`},
		{name: "crash with a NaN end", crash: "h1@0:NaN", err: `crash spec "h1@0:NaN": bad end time: "NaN" is not a number`},
		{name: "second crash malformed", crash: "h1@0:1,h2@", err: `crash spec "h2@": want from:until`},
		{name: "slow without @", slow: "h1:0:1:2", err: `slow spec "h1:0:1:2": want host@from:until:factor`},
		{name: "slow without colon", slow: "h1@4", err: `slow spec "h1@4": want host@from:until:factor`},
		{name: "slow without factor", slow: "h1@0:1", err: `slow spec "h1@0:1": want from:until`},
		{name: "slow with a bad factor", slow: "h1@0:1:fast", err: `slow spec "h1@0:1:fast": bad factor: `},
		{name: "slow with a nan factor", slow: "h1@0:1:nan", err: `slow spec "h1@0:1:nan": bad factor: "nan" is not a number`},
		{name: "slow with a bad window", slow: "h1@0:x:2", err: `slow spec "h1@0:x:2": bad end time: `},
		{name: "slow with a negative factor", slow: "h1@0:1:-2", err: `slow spec "h1@0:1:-2": factor -2 must be >= 1`},
		{name: "slow with a speed-up", slow: "h1@0:1:0.5", err: `slow spec "h1@0:1:0.5": factor 0.5 must be >= 1`},
	} {
		fp := NewFaultPlan(1)
		err := fp.ParseCrashes(tc.crash)
		if err == nil {
			err = fp.ParseSlowdowns(tc.slow)
		}
		if tc.err != "" {
			if err == nil || !strings.HasPrefix(err.Error(), tc.err) {
				t.Errorf("%s: error %v, want prefix %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(fp.Outages, tc.outages) || !reflect.DeepEqual(fp.Slowdowns, tc.slowdowns) {
			t.Errorf("%s: plan %+v %+v, want %+v %+v", tc.name, fp.Outages, fp.Slowdowns, tc.outages, tc.slowdowns)
		}
	}
}

// FuzzFaultSpec feeds arbitrary schedules to both parsers: each returns a
// plan or an error and never panics, a failed parse names the offending
// entry, no NaN reaches the plan, and the plan survives the engine's own
// validation (which may reject it, not crash on it).
func FuzzFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"", ",", "h@0:1", "g3@0.001:inf", "g0@0:inf:4,g1@1:2:1.5", "h@nan:1", "h@0:1:NaN",
		"h@@1:2", "h@:", "h@::", "@0:1", "h@1e999:inf", "h@-1:-2:0x1p-2", "a@0:1,b", "h@inf:inf:inf",
	} {
		f.Add(seed)
	}
	pl := Synthetic(4, 2, 0, 1)
	f.Fuzz(func(t *testing.T, schedule string) {
		for _, parse := range []func(*FaultPlan, string) error{(*FaultPlan).ParseCrashes, (*FaultPlan).ParseSlowdowns} {
			fp := NewFaultPlan(1)
			if err := parse(fp, schedule); err != nil {
				if !strings.Contains(err.Error(), " spec ") {
					t.Fatalf("%q: error %q does not name the entry", schedule, err)
				}
				continue
			}
			entries := 0
			for _, spec := range strings.Split(schedule, ",") {
				if spec != "" {
					entries++
				}
			}
			if got := len(fp.Outages) + len(fp.Slowdowns); got != entries {
				t.Fatalf("%q: %d windows in the plan, want %d", schedule, got, entries)
			}
			for _, o := range fp.Outages {
				if math.IsNaN(o.From) || math.IsNaN(o.Until) {
					t.Fatalf("%q: NaN in %+v", schedule, o)
				}
			}
			for _, s := range fp.Slowdowns {
				if math.IsNaN(s.From) || math.IsNaN(s.Until) || math.IsNaN(s.Factor) {
					t.Fatalf("%q: NaN in %+v", schedule, s)
				}
			}
			_ = (&faultState{plan: fp}).resolve(pl)
		}
	})
}
