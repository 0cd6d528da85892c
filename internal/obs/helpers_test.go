package obs

// ComputeMetrics aggregates a batch recorder into Metrics the way
// Exporting.Finish does, without the files: what this package's tests (both
// test packages) compare exports and windows against. makespan is the run's
// end-to-end virtual time; host idle time is measured against it.
func ComputeMetrics(r *Recorder, makespan float64) *Metrics {
	f := spanFold{hosts: map[string]*HostUtil{}}
	f.feed(r)
	return f.metrics(r, makespan)
}
