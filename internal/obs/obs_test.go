package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestNilRecorderAndScope(t *testing.T) {
	var r *Recorder
	r.Span(Span{Track: "a", Cat: CatCompute})
	r.Sample("residual", "a", 1, 2)
	r.Count("retries", "a", 1)
	if r.Spans() != nil || r.Samples() != nil || r.Counters() != nil {
		t.Fatal("nil recorder should be a no-op sink")
	}
	sc := NewScope(nil, "a")
	if sc != nil {
		t.Fatal("NewScope(nil, ...) should return nil")
	}
	sc.Span(Span{Cat: CatIter})
	sc.Sample("residual", 1, 2)
	sc.Count("retries", 1)
}

func TestSpansSortedForExport(t *testing.T) {
	r := &Recorder{}
	// Emit out of global time order, as different tracks legitimately do.
	r.Span(Span{Track: "b", Cat: CatCompute, Start: 2, End: 3})
	r.Span(Span{Track: "a", Cat: CatCompute, Start: 0, End: 1})
	r.Span(Span{Track: "a", Cat: CatSend, Start: 2, End: 2.5})
	r.Span(Span{Track: "b", Cat: CatCompute, Start: 0, End: 2})
	got := r.Spans()
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Start > b.Start || (a.Start == b.Start && a.Track > b.Track) {
			t.Fatalf("spans not sorted at %d: %+v before %+v", i, a, b)
		}
	}
	if got[0].Track != "a" || got[1].Track != "b" {
		t.Fatalf("tie at Start=0 not broken by track: %+v", got[:2])
	}
}

func TestScopeDefaultsSolverTrack(t *testing.T) {
	r := &Recorder{}
	sc := NewScope(r, "ms-3")
	sc.Span(Span{Cat: CatIter, Name: "iter", Start: 1, End: 2})
	sc.Span(Span{Track: "custom", Cat: CatPhase, Start: 2, End: 3})
	sc.Sample("residual", 2, 0.5)
	sc.Count("retries", 2)
	spans := r.Spans()
	if spans[0].Track != "solver:ms-3" {
		t.Fatalf("default track = %q, want solver:ms-3", spans[0].Track)
	}
	if spans[1].Track != "custom" {
		t.Fatalf("explicit track overridden: %q", spans[1].Track)
	}
	if s := r.Samples(); s[0].Track != "ms-3" {
		t.Fatalf("sample track = %q, want ms-3", s[0].Track)
	}
	if c := r.Counters(); c[0].Track != "ms-3" || c[0].Value != 2 {
		t.Fatalf("counter = %+v", c[0])
	}
}

// A link's three counters share one cell: CountLink, the three Count calls
// it stands for, and a journal of CountLink replayed list the same totals,
// summed in the same order, and a counter a link never had is not listed.
func TestCountLinkMatchesCount(t *testing.T) {
	q1, q2, q3 := 0.1, 0.2, 1e-7 // variables: their sum is rounded at run time
	feed := []struct {
		link         string
		bytes, queue float64
	}{{"wan", 256, q1}, {"lan", 64, 0}, {"wan", 128, q2}, {"wan", 1e6, q3}}
	direct, viaLink, replayed, j := &Recorder{}, &Recorder{}, &Recorder{}, NewJournal()
	for _, r := range []*Recorder{direct, viaLink, j} {
		r.Count("retries", "a", 1)
		r.Count(CntLinkBytes, "nic", 8)
	}
	for _, f := range feed {
		direct.Count(CntLinkBytes, f.link, f.bytes)
		direct.Count(CntLinkMsgs, f.link, 1)
		direct.Count(CntLinkQueue, f.link, f.queue)
		viaLink.CountLink(f.link, f.bytes, f.queue)
		j.CountLink(f.link, f.bytes, f.queue)
	}
	j.NewReplayer(replayed).ReplayTo(j.NumOps())
	want := []CounterTotal{
		{CntLinkBytes, "lan", 64}, {CntLinkBytes, "nic", 8}, {CntLinkBytes, "wan", 256 + 128 + 1e6},
		{CntLinkMsgs, "lan", 1}, {CntLinkMsgs, "wan", 3},
		{CntLinkQueue, "lan", 0}, {CntLinkQueue, "wan", q1 + q2 + q3},
		{"retries", "a", 1},
	}
	for name, r := range map[string]*Recorder{"Count": direct, "CountLink": viaLink, "replayed journal": replayed} {
		if got := r.Counters(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: counters\n%v\nwant\n%v", name, got, want)
		}
	}
}

// handBuiltRun records a two-process exchange with known timings:
//
//	a: compute [0,1]  send [1,1.2]  wait [1.2,2.5] (caused by seq 7)  compute [2.5,3]
//	b: compute [0,1.8]  send [1.8,1.9]
//	net: b>a in flight [1.8,2.5] seq 7
func handBuiltRun() *Recorder {
	r := &Recorder{}
	r.Span(Span{Track: "a", Cat: CatCompute, Name: "compute", Start: 0, End: 1, Flops: 100})
	r.Span(Span{Track: "a", Cat: CatSend, Name: "send", Start: 1, End: 1.2, Bytes: 10, To: "b"})
	r.Span(Span{Track: "a", Cat: CatWait, Name: "wait", Start: 1.2, End: 2.5, Cause: 7, From: "b"})
	r.Span(Span{Track: "a", Cat: CatCompute, Name: "compute", Start: 2.5, End: 3, Flops: 50})
	r.Span(Span{Track: "b", Cat: CatCompute, Name: "compute", Start: 0, End: 1.8, Flops: 200})
	r.Span(Span{Track: "b", Cat: CatSend, Name: "send", Start: 1.8, End: 1.9, Bytes: 20, To: "a"})
	r.Span(Span{Track: "net", Cat: CatNet, Name: "b>a", Start: 1.8, End: 2.5, Seq: 7, From: "b", To: "a", Bytes: 20})
	r.Sample("residual", "a", 2.5, 1e-3)
	r.Sample("residual", "a", 3, 1e-6)
	r.Count(CntLinkBytes, "lan", 30)
	r.Count(CntLinkMsgs, "lan", 2)
	r.Count("retries", "a", 1)
	return r
}

func TestCriticalPathExactDecomposition(t *testing.T) {
	cp := CriticalPath(handBuiltRun())
	if cp == nil {
		t.Fatal("no critical path")
	}
	if cp.Makespan != 3 {
		t.Fatalf("makespan = %g, want 3", cp.Makespan)
	}
	// Walk: a.compute [2.5,3] -> wait caused by seq 7 -> network back to the
	// wire start 1.8, jump to b -> b.compute [0,1.8].
	if got, want := cp.Compute, 0.5+1.8; math.Abs(got-want) > 1e-12 {
		t.Fatalf("compute = %g, want %g", got, want)
	}
	if got, want := cp.Network, 0.7; math.Abs(got-want) > 1e-12 {
		t.Fatalf("network = %g, want %g", got, want)
	}
	if cp.Wait != 0 {
		t.Fatalf("wait = %g, want 0", cp.Wait)
	}
	if sum := cp.Compute + cp.Network + cp.Wait; math.Abs(sum-cp.Makespan) > 1e-9 {
		t.Fatalf("decomposition %g does not sum to makespan %g", sum, cp.Makespan)
	}
	// Segments are in forward time order and contiguous.
	for i := 1; i < len(cp.Segments); i++ {
		if math.Abs(cp.Segments[i].Start-cp.Segments[i-1].End) > 1e-12 {
			t.Fatalf("segments not contiguous: %+v then %+v", cp.Segments[i-1], cp.Segments[i])
		}
	}
	top := cp.TopK(1)
	if len(top) != 1 || top[0].Dur() != 1.8 {
		t.Fatalf("top segment = %+v, want the 1.8s compute", top)
	}
	var buf bytes.Buffer
	cp.Fprint(&buf, 3)
	if !strings.Contains(buf.String(), "makespan 3.000000s") {
		t.Fatalf("report missing makespan:\n%s", buf.String())
	}
}

func TestCriticalPathIdleGap(t *testing.T) {
	r := &Recorder{}
	// A lone track with a hole: [0,1] compute, nothing, [2,3] compute.
	r.Span(Span{Track: "a", Cat: CatCompute, Start: 0, End: 1})
	r.Span(Span{Track: "a", Cat: CatCompute, Start: 2, End: 3})
	cp := CriticalPath(r)
	if cp.Compute != 2 || cp.Wait != 1 {
		t.Fatalf("compute=%g wait=%g, want 2/1", cp.Compute, cp.Wait)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	if cp := CriticalPath(&Recorder{}); cp != nil {
		t.Fatalf("empty recorder yielded %+v", cp)
	}
}

func TestComputeMetrics(t *testing.T) {
	m := ComputeMetrics(handBuiltRun(), 3)
	if len(m.Hosts) != 2 {
		t.Fatalf("hosts = %d, want 2 (net span must not create a host)", len(m.Hosts))
	}
	a := m.Hosts[0]
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if a.Track != "a" || !near(a.Compute, 1.5) || !near(a.Send, 0.2) || !near(a.Wait, 1.3) {
		t.Fatalf("host a budgets wrong: %+v", a)
	}
	if math.Abs(a.Idle-0) > 1e-12 {
		t.Fatalf("host a idle = %g, want 0", a.Idle)
	}
	if want := (1.5 + 0.2) / 3; math.Abs(a.Utilization-want) > 1e-12 {
		t.Fatalf("host a utilization = %g, want %g", a.Utilization, want)
	}
	if a.Flops != 150 {
		t.Fatalf("host a flops = %g, want 150", a.Flops)
	}
	if len(m.Links) != 1 || m.Links[0].Link != "lan" || m.Links[0].Bytes != 30 || m.Links[0].Msgs != 2 {
		t.Fatalf("links = %+v", m.Links)
	}
	// link_* counters are folded into Links, not repeated in Counters.
	for _, c := range m.Counters {
		if strings.HasPrefix(c.Name, "link_") {
			t.Fatalf("link counter leaked into Counters: %+v", c)
		}
	}
	if len(m.Series) != 1 || len(m.Series[0].Points) != 2 {
		t.Fatalf("series = %+v", m.Series)
	}
}

func TestMetricsExportsDeterministic(t *testing.T) {
	m := ComputeMetrics(handBuiltRun(), 3)
	var j1, j2, c1, c2 bytes.Buffer
	if err := m.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteCSV(&c1); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteCSV(&c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) || !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatal("metric exports are not byte-stable")
	}
	var decoded Metrics
	if err := json.Unmarshal(j1.Bytes(), &decoded); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if !strings.HasPrefix(c1.String(), "table,track,field,value\n") {
		t.Fatalf("CSV header missing:\n%s", c1.String())
	}
}

func TestWriteTraceJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, handBuiltRun()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	phases := map[string]int{}
	type key struct{ pid, tid int }
	intervals := map[key][][2]float64{}
	for _, ev := range f.TraceEvents {
		phases[ev.Ph]++
		if ev.Ph == "X" {
			intervals[key{ev.Pid, ev.Tid}] = append(intervals[key{ev.Pid, ev.Tid}], [2]float64{ev.Ts, ev.Ts + ev.Dur})
		}
	}
	if phases["M"] == 0 || phases["X"] == 0 {
		t.Fatalf("missing metadata or complete events: %v", phases)
	}
	if phases["b"] != 1 || phases["e"] != 1 {
		t.Fatalf("net transfer should be one async pair: %v", phases)
	}
	if phases["C"] != 2 {
		t.Fatalf("samples should be 2 counter events: %v", phases)
	}
	// Per-track complete events must tile without overlap.
	for k, iv := range intervals {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		for i := 1; i < len(iv); i++ {
			if iv[i][0] < iv[i-1][1]-1e-9 {
				t.Fatalf("overlapping X events on pid=%d tid=%d: %v", k.pid, k.tid, iv)
			}
		}
	}
}
