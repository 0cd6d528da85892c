package vgrid

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseCrashes adds a crash schedule in the commands' textual grammar (msolve
// -crash) to the plan: comma-separated "host@from:until" windows in virtual
// seconds, where until may be "inf"; empty entries are skipped.
func (fp *FaultPlan) ParseCrashes(schedule string) error {
	for _, spec := range strings.Split(schedule, ",") {
		if spec == "" {
			continue
		}
		host, window, ok := strings.Cut(spec, "@")
		if !ok {
			return fmt.Errorf("crash spec %q: want host@from:until", spec)
		}
		from, until, err := parseWindow(spec, window)
		if err != nil {
			return fmt.Errorf("crash %w", err)
		}
		fp.CrashHost(host, from, until)
	}
	return nil
}

// ParseSlowdowns adds a slowdown schedule (msolve -slow) to the plan:
// "host@from:until:factor" windows in the grammar of ParseCrashes, each
// factor at least 1 (a slowdown never speeds a host up).
func (fp *FaultPlan) ParseSlowdowns(schedule string) error {
	for _, spec := range strings.Split(schedule, ",") {
		if spec == "" {
			continue
		}
		host, rest, ok := strings.Cut(spec, "@")
		i := strings.LastIndex(rest, ":")
		if !ok || i < 0 {
			return fmt.Errorf("slow spec %q: want host@from:until:factor", spec)
		}
		factor, err := parseNumber(rest[i+1:])
		if err != nil {
			return fmt.Errorf("slow spec %q: bad factor: %w", spec, err)
		}
		if !(factor >= 1) {
			return fmt.Errorf("slow spec %q: factor %g must be >= 1", spec, factor)
		}
		from, until, err := parseWindow(spec, rest[:i])
		if err != nil {
			return fmt.Errorf("slow %w", err)
		}
		fp.DegradeHost(host, from, until, factor)
	}
	return nil
}

// parseWindow splits a "from:until" window, where until may be "inf".
func parseWindow(spec, window string) (from, until float64, err error) {
	fromStr, untilStr, ok := strings.Cut(window, ":")
	if !ok {
		return 0, 0, fmt.Errorf("spec %q: want from:until", spec)
	}
	if from, err = parseNumber(fromStr); err != nil {
		return 0, 0, fmt.Errorf("spec %q: bad start time: %w", spec, err)
	}
	until = math.Inf(1)
	if untilStr != "inf" {
		if until, err = parseNumber(untilStr); err != nil {
			return 0, 0, fmt.Errorf("spec %q: bad end time: %w", spec, err)
		}
	}
	return from, until, nil
}

// parseNumber is strconv.ParseFloat without its "nan": no window bound or
// factor compares with a NaN.
func parseNumber(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && math.IsNaN(v) {
		err = fmt.Errorf("%q is not a number", s)
	}
	return v, err
}
