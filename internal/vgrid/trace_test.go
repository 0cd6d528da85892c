package vgrid

import (
	"bytes"
	"strings"
	"testing"
)

func tracedRun(t *testing.T) *Recorder {
	t.Helper()
	pl, a, b := twoHostPlatform(0.001, 1e7)
	e := NewEngine(pl)
	rec := &Recorder{}
	e.Record(rec)
	var src, dst *Proc
	src = e.Spawn(a, "src", func(p *Proc) error {
		for i := 0; i < 3; i++ {
			p.Compute(1e6)
			if err := p.Send(dst, 1, nil, 1000); err != nil {
				return err
			}
		}
		return nil
	})
	dst = e.Spawn(b, "dst", func(p *Proc) error {
		for i := 0; i < 3; i++ {
			p.Recv(src.ID, 1)
		}
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecorderCapturesEvents(t *testing.T) {
	rec := tracedRun(t)
	if len(rec.Events) == 0 {
		t.Fatal("no events recorded")
	}
	kinds := map[string]int{}
	for _, ev := range rec.Events {
		kinds[ev.Kind]++
		if ev.Time < 0 {
			t.Fatalf("negative event time: %+v", ev)
		}
	}
	if kinds["send"] != 3 {
		t.Fatalf("sends = %d, want 3", kinds["send"])
	}
	if kinds["recv"] != 3 {
		t.Fatalf("recvs = %d, want 3", kinds["recv"])
	}
	if kinds["done"] != 2 {
		t.Fatalf("done = %d, want 2", kinds["done"])
	}
}

func TestTimelineRendering(t *testing.T) {
	rec := tracedRun(t)
	var buf bytes.Buffer
	if err := rec.WriteTimeline(&buf, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "src") || !strings.Contains(out, "dst") {
		t.Fatalf("timeline missing processes:\n%s", out)
	}
	if !strings.ContainsAny(out, ".:+*#") {
		t.Fatalf("timeline has no activity marks:\n%s", out)
	}
}

func TestTimelineGolden(t *testing.T) {
	rec := &Recorder{Events: []TraceEvent{
		{Time: 0, Proc: "a", Kind: "send"},
		{Time: 0.5, Proc: "a", Kind: "send"},
		{Time: 1, Proc: "b", Kind: "recv"},
		{Time: 2, Proc: "b", Kind: "done"},
	}}
	var buf bytes.Buffer
	if err := rec.WriteTimeline(&buf, 10); err != nil {
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
	rec := &Recorder{Events: []TraceEvent{
		{Time: 1.234e+100, Proc: "p", Kind: "send"},
	}}
	var buf bytes.Buffer
	if err := rec.WriteTimeline(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1.234e+100") {
		t.Fatalf("axis label missing:\n%s", buf.String())
	}
}

func TestTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Recorder{}).WriteTimeline(&buf, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no events") {
		t.Fatal("empty recorder should say so")
	}
}

func TestParseTraceLine(t *testing.T) {
	ev, ok := parseTraceLine("t=1.500000 worker-3 send to=worker-4 tag=1 bytes=80 arrive=1.6")
	if !ok || ev.Proc != "worker-3" || ev.Kind != "send" || ev.Time != 1.5 {
		t.Fatalf("parse failed: %+v ok=%v", ev, ok)
	}
	if _, ok := parseTraceLine("garbage"); ok {
		t.Fatal("garbage accepted")
	}
}
