package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/vgrid"
)

// TestTimelineRendering draws the timeline of a real run: three messages
// from src to a blocked dst give each process three events plus its end.
func TestTimelineRendering(t *testing.T) {
	pl := vgrid.NewPlatform()
	a, b := pl.AddHost("a", 1e9, 0), pl.AddHost("b", 1e9, 0)
	pl.SetRoute(a, b, vgrid.NewLink("l", 0.001, 1e7))
	e := vgrid.NewEngine(pl)
	rec := &obs.Recorder{}
	e.Observe(rec)
	var src, dst *vgrid.Proc
	src = e.Spawn(a, "src", func(p *vgrid.Proc) error {
		for i := 0; i < 3; i++ {
			p.Compute(1e6)
			if err := p.Send(dst, 1, nil, 1000); err != nil {
				return err
			}
		}
		return nil
	})
	dst = e.Spawn(b, "dst", func(p *vgrid.Proc) error {
		for i := 0; i < 3; i++ {
			p.Recv(src.ID, 1)
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	events := timelineEvents(rec, e.Stats())
	if len(events) != 2 || len(events["src"]) != 4 || len(events["dst"]) != 4 {
		t.Fatalf("events %v, want 3 sends + end on src and 3 deliveries + end on dst", events)
	}
	var buf bytes.Buffer
	if err := writeTimeline(&buf, events, 40); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "src |") || !strings.Contains(out, "dst |") || !strings.ContainsAny(out, ".:+*#") {
		t.Fatalf("timeline misses a process or its activity marks:\n%s", out)
	}
}

func TestTimelineGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeTimeline(&buf, map[string][]float64{"a": {0, 0.5}, "b": {1, 2}}, 10); err != nil {
		t.Fatal(err)
	}
	want := "a |. .       |\n" +
		"b |    .    .|\n" +
		"   0        2s\n"
	if buf.String() != want {
		t.Fatalf("timeline mismatch:\ngot:\n%swant:\n%s", buf.String(), want)
	}
}

func TestTimelineClampsAxisPad(t *testing.T) {
	// A time whose %.4g rendering is wider than the timeline itself used to
	// drive strings.Repeat with a negative count and panic.
	var buf bytes.Buffer
	if err := writeTimeline(&buf, map[string][]float64{"p": {1.234e+100}}, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1.234e+100") {
		t.Fatalf("axis label missing:\n%s", buf.String())
	}
}

func TestTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeTimeline(&buf, nil, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no events") {
		t.Fatal("empty timeline should say so")
	}
}
