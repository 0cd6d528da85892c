// Command msprof analyzes the metrics artifacts a run writes (msolve/msexp
// -metrics-out and -window): it summarizes a windowed or aggregate metrics
// JSON file, diffs two windowed files window-by-window, and re-exports the
// windowed time series as JSON or CSV.
//
// Usage:
//
//	msprof summary FILE [-top N]
//	msprof diff OLD NEW [-top N]
//	msprof export FILE [-json OUT] [-csv OUT]
//
// FILE is either a windowed metrics file (PREFIX.windows.json, written when
// -window > 0) or an aggregate metrics file (PREFIX.json); summary detects
// which by the "width" field. diff and export need windowed files. A missing
// or unknown sub-command, a bad flag or a wrong number of files is exit
// status 2; a file that cannot be read or is of the wrong kind is exit 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = `usage:
  msprof summary FILE [-top N]   summarize a windowed or aggregate metrics file
  msprof diff OLD NEW [-top N]   compare two windowed metrics files
  msprof export FILE [-json OUT] [-csv OUT]   re-export windowed time series
`

// errUsage marks a sub-command's complaint about its arguments (exit 2).
var errUsage = errors.New("usage")

// run is the command behind main: it runs one sub-command onto stdout and
// returns the exit status (0 ok, 1 a file failed, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	fs := flag.NewFlagSet("msprof "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		files int
		cmd   func(w io.Writer, paths []string) error
	)
	switch args[0] {
	case "summary":
		top := fs.Int("top", 20, "maximum windows (or hosts) to print")
		files, cmd = 1, func(w io.Writer, p []string) error { return summary(w, p[0], *top) }
	case "diff":
		top := fs.Int("top", 40, "maximum windows to print")
		files, cmd = 2, func(w io.Writer, p []string) error { return diff(w, p[0], p[1], *top) }
	case "export":
		jsonOut := fs.String("json", "", "write windowed time series as JSON to this file (\"-\" = stdout)")
		csvOut := fs.String("csv", "", "write windowed time series as CSV to this file (\"-\" = stdout)")
		files, cmd = 1, func(w io.Writer, p []string) error { return export(w, p[0], *jsonOut, *csvOut) }
	default:
		fmt.Fprintf(stderr, "msprof: unknown sub-command %q\n%s", args[0], usage)
		return 2
	}
	paths, err := parseMixed(fs, args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if len(paths) != files {
		err = fmt.Errorf("%w: %s needs %d metrics file(s), got %d", errUsage, args[0], files, len(paths))
	} else {
		err = cmd(stdout, paths)
	}
	switch {
	case errors.Is(err, errUsage):
		fmt.Fprintln(stderr, "msprof:", err)
		return 2
	case err != nil:
		fmt.Fprintln(stderr, "msprof:", err)
		return 1
	}
	return 0
}

// parseMixed parses fs accepting flags before or after the positional
// arguments (the usage lines show them trailing, where package flag would
// otherwise stop scanning) and returns the positionals in order.
func parseMixed(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		args = fs.Args()
		if len(args) == 0 {
			return pos, nil
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
}

// loadWindowed reads a windowed metrics file; ok is false when the file is
// an aggregate metrics file instead (no "width").
func loadWindowed(path string) (*obs.WindowedMetrics, bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	wm := &obs.WindowedMetrics{}
	if err := json.Unmarshal(raw, wm); err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	if wm.Width <= 0 {
		return nil, false, nil
	}
	return wm, true, nil
}

// mustWindowed is loadWindowed for the sub-commands that need a windowed file.
func mustWindowed(path string) (*obs.WindowedMetrics, error) {
	wm, ok, err := loadWindowed(path)
	if err == nil && !ok {
		err = fmt.Errorf("%s: not a windowed metrics file (write one with -window > 0)", path)
	}
	return wm, err
}

// summary implements `msprof summary`.
func summary(w io.Writer, path string, top int) error {
	wm, ok, err := loadWindowed(path)
	if err != nil {
		return err
	}
	if ok {
		wm.Fprint(w, top)
		return nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	m := &obs.Metrics{}
	if err := json.Unmarshal(raw, m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "aggregate metrics: makespan %.6fs, %d hosts, %d links\n", m.Makespan, len(m.Hosts), len(m.Links))
	hosts := make([]obs.HostUtil, len(m.Hosts))
	copy(hosts, m.Hosts)
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].Utilization > hosts[j].Utilization })
	for _, h := range hosts[:min(len(hosts), top)] {
		fmt.Fprintf(w, "  %-16s util %.3f  compute %.4f  send %.4f  wait %.4f  idle %.4f\n",
			h.Track, h.Utilization, h.Compute, h.Send, h.Wait, h.Idle)
	}
	return nil
}

// winAgg is one window's cross-host/link aggregate used by diff.
type winAgg struct {
	util, wait  float64
	hosts       int
	bytes, msgs float64
}

// aggregate folds a windowed file into per-window means and totals.
func aggregate(wm *obs.WindowedMetrics) map[int]*winAgg {
	rows := map[int]*winAgg{}
	at := func(w int) *winAgg {
		r := rows[w]
		if r == nil {
			r = &winAgg{}
			rows[w] = r
		}
		return r
	}
	for i := range wm.Hosts {
		h := &wm.Hosts[i]
		r := at(h.W)
		r.util += h.Utilization
		r.wait += h.WaitShare
		r.hosts++
	}
	for i := range wm.Links {
		l := &wm.Links[i]
		r := at(l.W)
		r.bytes += l.Bytes
		r.msgs += l.Msgs
	}
	for _, r := range rows {
		if r.hosts > 0 {
			r.util /= float64(r.hosts)
			r.wait /= float64(r.hosts)
		}
	}
	return rows
}

// diff implements `msprof diff`: window-by-window deltas of mean
// utilization, mean wait share and link traffic between two windowed files.
func diff(w io.Writer, oldPath, newPath string, top int) error {
	a, err := mustWindowed(oldPath)
	if err != nil {
		return err
	}
	b, err := mustWindowed(newPath)
	if err != nil {
		return err
	}
	if a.Width != b.Width {
		fmt.Fprintf(w, "note: window widths differ (%g vs %g); windows compare positionally\n", a.Width, b.Width)
	}
	fmt.Fprintf(w, "makespan %.6fs -> %.6fs (%+.6fs)\n", a.Makespan, b.Makespan, b.Makespan-a.Makespan)
	ra, rb := aggregate(a), aggregate(b)
	printed := 0
	for i := 0; i < max(a.Windows, b.Windows) && printed < top; i++ {
		x, y := ra[i], rb[i]
		if x == nil && y == nil {
			continue
		}
		var z winAgg
		if x == nil {
			x = &z
		}
		if y == nil {
			y = &z
		}
		fmt.Fprintf(w, "  w%-3d util %.3f -> %.3f (%+.3f)  wait %.3f -> %.3f (%+.3f)  bytes %.0f -> %.0f\n",
			i, x.util, y.util, y.util-x.util, x.wait, y.wait, y.wait-x.wait, x.bytes, y.bytes)
		printed++
	}
	return nil
}

// export implements `msprof export`: re-emit a windowed file's rows as
// indented JSON and/or long-form CSV ("-" writes to w).
func export(w io.Writer, path, jsonOut, csvOut string) error {
	if jsonOut == "" && csvOut == "" {
		return fmt.Errorf("%w: export needs -json and/or -csv", errUsage)
	}
	wm, err := mustWindowed(path)
	if err != nil {
		return err
	}
	for _, out := range []struct {
		path string
		emit func(io.Writer) error
	}{{jsonOut, wm.WriteJSON}, {csvOut, wm.WriteCSV}} {
		switch out.path {
		case "":
		case "-":
			err = out.emit(w)
		default:
			err = obs.WriteFile(out.path, out.emit)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
