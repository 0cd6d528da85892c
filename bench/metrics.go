package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDef names one metric the benchmark prints.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// contract is BENCHMARK.json, the one place that lists the workloads' why
// lines and every metric's name, unit, direction and bound. The program runs
// from the root of the checkout, where the file lives, and reads it at
// start-up (loadContract); the tables below are empty until then.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var (
	// endToEnd are the metrics a user of the system sees, measured with
	// tracing off. README, "Observed spread", says where the bounds come from.
	endToEnd []metricDef
	// perLayer are the traced pass's metrics: counts made at, and host time
	// spent behind, each layer's public functions. A metric a workload does
	// not exercise reads 0 there.
	perLayer []metricDef
)

// loadContract reads BENCHMARK.json into endToEnd, perLayer and the workloads'
// why lines. The file must list exactly the workloads the program has.
func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s lists %d workloads, the program has %d", path, len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			return nil, fmt.Errorf("%s: workload %d is %q, the program's is %q", path, i, c.Workloads[i].Name, w.name)
		}
		w.why = c.Workloads[i].Why
	}
	endToEnd, perLayer = c.EndToEnd, c.PerLayer
	return &c, nil
}

// quartiles returns the first quartile, median and third quartile of v by
// linear interpolation between order statistics; zeros for an empty slice.
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		lo := int(math.Floor(x))
		hi := int(math.Ceil(x))
		return s[lo] + (s[hi]-s[lo])*(x-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// tailPercentile returns the highest percentile of v that still has at least
// ten samples beyond it, and its value; ok is false with fewer than 20
// samples, where no percentile above the median qualifies.
func tailPercentile(v []float64) (pct, val float64, ok bool) {
	n := len(v)
	if n < 20 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	idx := n - 11 // ten samples lie above s[idx]
	return 100 * float64(idx+1) / float64(n), s[idx], true
}
