package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// A run sets up at least minSetups times, and up to maxSetups while the
// set-ups so far took less than setupBudget seconds; setup_s is their median,
// so that one disturbed set-up does not decide the metric.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 2.5
)

// minReps is the fewest timed repetitions of a run, whatever --seconds says:
// below ten the quartiles of wall_s say little.
const minReps = 10

// value is one reported metric of one run.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// runResult is one run of one workload: the untraced pass's end-to-end
// metrics or the traced pass's per-layer metrics.
type runResult struct {
	Workload  string           `json:"workload"`
	Why       string           `json:"why"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Reps      int              `json:"reps"`
	Instances int              `json:"instances"`
	Metrics   map[string]value `json:"metrics"`
	Tail      string           `json:"wall_tail,omitempty"`
	RepTimes  [][]float64      `json:"rep_times_s,omitempty"` // per instance, raw host seconds of each repetition
	RepRef    [][]float64      `json:"rep_ref_s,omitempty"`   // per instance, host seconds of the reference unit around each repetition
	RawWall   float64          `json:"wall_raw_s,omitempty"`  // median raw repetition, for information
	HostSlow  float64          `json:"host_slowdown,omitempty"`
	Errors    []string         `json:"errors,omitempty"`

	digests map[int]uint64 // per instance, the digest every repetition must reproduce
}

// fail counts a failed repetition and keeps the first few reasons.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// subSeed derives the generator seed of a run's i-th instance. Instance
// counts stay far below 1000, so two --seed values never share an instance.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// runWorkload is the untraced pass. Set-up (seeded generation of every
// instance plus one warm-up repetition on a single worker) runs several
// times; then the closed loop cycles over the instances, one repetition at a
// time, in whole rounds until about `seconds` have passed and at least
// minReps repetitions are done. A slot of reference units (calib.go) runs
// between any two set-ups or repetitions, and each one's host time is scaled
// to the speed the host showed in the slots before and after it. scale
// divides every size; only the tests pass anything but 1.
func runWorkload(w *workload, seed int64, seconds float64, scale int) *runResult {
	res := &runResult{Workload: w.name, Why: w.why, Seed: seed, Instances: w.instances, Metrics: map[string]value{}}
	ref := newReference()
	defer ref.close()

	var ins []*instance
	var setups []float64
	before := ref.sample(0)
	for spent := 0.0; len(setups) < minSetups || (len(setups) < maxSetups && spent < setupBudget); {
		t0 := time.Now()
		ins = make([]*instance, w.instances)
		for i := range ins {
			ins[i] = w.gen(subSeed(seed, i), scale)
		}
		// One worker: the digest below is then also checked against the
		// default worker count of the timed repetitions.
		out, err := w.rep(ins[0], repOpts{workers: 1})
		d := time.Since(t0)
		after := ref.sample(refSlot(d))
		setups = append(setups, d.Seconds()*refNominal*2/(before+after))
		before = after
		spent += d.Seconds()
		res.check(0, out, err)
	}

	times := make([][]float64, w.instances)
	refs := make([][]float64, w.instances)
	virt := make([]float64, w.instances)
	var raw, adj, slow []float64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	before = ref.sample(0)
	for round := 1; ; round++ {
		for i, in := range ins {
			out, err := w.rep(in, repOpts{})
			res.Reps++
			after := ref.sample(refSlot(out.wall))
			host := (before + after) / 2
			before = after
			if res.check(i, out, err) {
				times[i] = append(times[i], out.wall.Seconds())
				refs[i] = append(refs[i], host)
				raw = append(raw, out.wall.Seconds())
				adj = append(adj, out.wall.Seconds()*refNominal/host)
				slow = append(slow, host/refNominal)
				virt[i] = out.virt
			}
		}
		// Stop at the whole round nearest to the requested length, but not
		// below minReps repetitions.
		el := time.Since(start).Seconds()
		if res.Reps >= minReps && el+el/float64(round)/2 > seconds {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	res.RepTimes, res.RepRef = times, refs
	res.RawWall, res.HostSlow = median(raw), median(slow)

	// The median over the pooled repetitions: whole rounds give every instance
	// the same weight.
	q1, med, q3 := quartiles(adj)
	res.Metrics["wall_s"] = value{Value: med, Unit: "s", Q1: q1, Q3: q3, N: len(adj)}
	res.Metrics["virt_makespan_s"] = value{Value: mean(virt), Unit: "virt_s", N: len(virt)}
	res.Metrics["alloc_mb_per_rep"] = value{Value: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(res.Reps), Unit: "MB", N: res.Reps}
	sq1, smed, sq3 := quartiles(setups)
	res.Metrics["setup_s"] = value{Value: smed, Unit: "s", Q1: sq1, Q3: sq3, N: len(setups)}
	if pct, val, ok := tailPercentile(adj); ok {
		res.Tail = fmt.Sprintf("p%.0f of a repetition %.4f s (n=%d)", pct, val, len(adj))
	} else {
		res.Tail = fmt.Sprintf("no percentile above the median has ten samples beyond it (n=%d)", len(adj))
	}
	res.Correct = res.Failed == 0
	return res
}

// check counts an attempted repetition of instance i and records its
// failure: an error, or a digest that differs from the instance's earlier
// repetitions. It reports whether the repetition counts.
func (r *runResult) check(i int, out outcome, err error) bool {
	r.Attempted++
	if err != nil {
		r.fail("instance %d: %v", i, err)
		return false
	}
	if r.digests == nil {
		r.digests = map[int]uint64{}
	}
	if ref, seen := r.digests[i]; !seen {
		r.digests[i] = out.digest
	} else if ref != out.digest {
		r.fail("instance %d: simulated statistics differ between repetitions (digest %016x vs %016x)", i, out.digest, ref)
		return false
	}
	return true
}

// probeCtx is what the traced pass hands a workload's layer probes.
type probeCtx struct {
	m     map[string]float64 // per-layer metrics, by name
	sp    *spanRec
	wall  float64 // median untraced repetition, host seconds
	wall1 float64 // the single-worker repetition, host seconds
	ref   outcome // a default-worker repetition of the same instance
}

// span times fn as a span named name. Spans named after a per-layer metric
// minus its "_s" suffix become that metric (traceWorkload).
func (pc *probeCtx) span(name string, fn func()) {
	s := pc.sp.start(name, 0)
	fn()
	pc.sp.end(s)
}

// traceWorkload is the traced pass on the seed's first instance: untraced
// and traced repetitions alternate for about 40% of `seconds` (their
// difference is the tracing overhead), then the workload's layer probes
// run. Spans go to dir/trace_<workload>.json when the pass ends.
func traceWorkload(w *workload, seed int64, seconds float64, scale int, dir string) *runResult {
	res := &runResult{Workload: w.name, Why: w.why, Seed: seed, Trace: true, Instances: 1, Metrics: map[string]value{}}
	sp := newSpanRec()
	pc := &probeCtx{m: map[string]float64{}, sp: sp}

	in := w.gen(subSeed(seed, 0), scale)
	out, err := w.rep(in, repOpts{workers: 1})
	res.check(0, out, err)
	pc.wall1 = out.wall.Seconds()

	var plain, traced []float64
	start := time.Now()
	for rep := 1; rep <= 3 || time.Since(start).Seconds() < 0.4*seconds; rep++ {
		out, err := w.rep(in, repOpts{})
		if res.check(0, out, err) {
			plain = append(plain, out.wall.Seconds())
		}
		sp.setRep(rep)
		out, err = w.rep(in, repOpts{sp: sp})
		res.Reps++
		if res.check(0, out, err) {
			traced = append(traced, out.wall.Seconds())
			pc.ref = out
		}
	}
	sp.setRep(res.Reps + 1) // the probes' own repetition id
	pc.wall = median(plain)
	if pc.wall > 0 {
		pc.m["trace.overhead_share"] = (median(traced) - pc.wall) / pc.wall
	}
	pc.m["env.nproc"] = float64(runtime.NumCPU())
	pc.m["env.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	pc.m["gen.matrix_s"] = in.genS
	if in.a != nil {
		pc.m["gen.nnz"] = float64(in.a.NNZ())
	}
	for k, v := range pc.ref.counts {
		pc.m[k] = v
	}
	if res.Failed == 0 {
		if err := w.probe(in, pc); err != nil {
			res.fail("layer probes: %v", err)
		}
	}
	listed := map[string]bool{}
	for _, d := range perLayer {
		listed[d.Name] = true
	}
	for k := range pc.m {
		if !listed[k] {
			res.fail("per-layer metric %s is not listed in BENCHMARK.json", k)
		}
	}
	for _, d := range perLayer {
		name := strings.TrimSuffix(d.Name, "_s")
		if _, set := pc.m[d.Name]; !set && name != d.Name {
			if t := sp.perRep(name); len(t) > 0 {
				pc.m[d.Name] = median(t)
			}
		}
		res.Metrics[d.Name] = value{Value: pc.m[d.Name], Unit: d.Unit}
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		res.fail("trace output: %v", err)
	} else if err := sp.writeJSON(filepath.Join(dir, "trace_"+w.name+".json")); err != nil {
		res.fail("trace output: %v", err)
	}
	res.Correct = res.Failed == 0
	return res
}
