// Command bench is the repository's benchmark: seven workloads, each a
// closed loop with one client, measured end to end with tracing off and
// layer by layer in a separate traced pass. See README.md.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one run; the last line is the result as JSON
//	bench [-runs R]                                          every workload; writes bench/out/result.json
//	bench -compare old.json new.json                         verdict per workload and end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outDir holds the span files and the default result file, relative to the
// root of the checkout the program runs from.
const outDir = "bench/out"

// resultFile is what a benchmark invocation writes and -compare reads.
type resultFile struct {
	Meta meta         `json:"meta"`
	Runs []*runResult `json:"runs"`
}

type meta struct {
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seconds    float64 `json:"seconds"`
	Date       string  `json:"date"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all)")
		seed    = flag.Int64("seed", 1, "seed of every generator (matrices, synthetic platforms)")
		seconds = flag.Float64("seconds", 10, "length of the measured closed loop of one run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass with the per-layer metrics")
		runs    = flag.Int("runs", 1, "repeat every selected workload this many times, on seeds seed, seed+1, ...")
		out     = flag.String("out", "", "result file (default "+outDir+"/result.json when every workload runs)")
		compare = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()

	if _, err := loadContract("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the root of the checkout:", err)
		os.Exit(2)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []*workload{w}
	} else if *out == "" {
		*out = filepath.Join(outDir, "result.json")
	}

	commit := os.Getenv("BENCH_COMMIT") // set by run.sh; the checkout may not be a git repository
	if commit == "" {
		commit = "unknown"
	}
	file := resultFile{Meta: meta{
		Seed: *seed, Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: *seconds,
		Date: time.Now().UTC().Format(time.RFC3339),
	}}
	fmt.Printf("bench: seed %d, commit %s, %s, nproc %d, GOMAXPROCS %d, %g s per run\n",
		*seed, commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), *seconds)

	correct := true
	var last *runResult
	for r := 0; r < *runs; r++ {
		for _, w := range selected {
			s := *seed + int64(r)
			var res *runResult
			if *trace == 1 {
				res = traceWorkload(w, s, *seconds, 1, outDir)
			} else {
				res = runWorkload(w, s, *seconds, 1)
			}
			printRun(res)
			file.Runs = append(file.Runs, res)
			correct = correct && res.Correct
			last = res
		}
	}
	if *out != "" {
		if err := writeResultFile(*out, &file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		fmt.Println("bench: results written to", *out)
	}
	if len(selected) == 1 && *runs == 1 {
		printContractLine(last)
	}
	if !correct {
		os.Exit(1)
	}
}

// printRun prints every metric of a run by name, with unit and, where the
// run has them, quartiles and sample count.
func printRun(res *runResult) {
	pass := "end-to-end, tracing off"
	defs := endToEnd
	if res.Trace {
		pass, defs = "per layer, traced", perLayer
	}
	fmt.Printf("\n%s  seed %d  (%s)  %d repetitions over %d instances\n  why: %s\n",
		res.Workload, res.Seed, pass, res.Reps, res.Instances, res.Why)
	for _, d := range defs {
		v := res.Metrics[d.Name]
		fmt.Printf("  %-30s %14.6g %-8s", d.Name, v.Value, v.Unit)
		if v.N > 0 {
			fmt.Printf("  n=%d", v.N)
		}
		if v.Q1 != 0 || v.Q3 != 0 {
			fmt.Printf("  quartiles %.6g .. %.6g", v.Q1, v.Q3)
		}
		fmt.Printf("  (%s is better)\n", d.Better)
	}
	if res.Tail != "" {
		fmt.Println("  " + res.Tail)
	}
	if res.HostSlow > 0 {
		fmt.Printf("  host ran the reference unit at %.2f of its nominal time; raw median repetition %.6g s\n", res.HostSlow, res.RawWall)
	}
	fmt.Printf("  %-30s %14.6g %-8s  %d failed of %d attempted\n", "failed_share",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	for _, e := range res.Errors {
		fmt.Println("  FAILED:", e)
	}
}

// printContractLine prints the single-run result object the benchmark
// driver reads from the last line of standard output.
func printContractLine(res *runResult) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for k, v := range res.Metrics {
		line.Metrics[k] = mv{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(data))
}

func writeResultFile(path string, f *resultFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
