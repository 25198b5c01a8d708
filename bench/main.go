// Command bench is the repository's benchmark: it hosts the real
// serving stack (core engine, HTTP server, cluster coordinator) in
// process over loopback TCP, drives it through the public /v1 API with
// seeded workloads, checks its answers and reports end-to-end and
// per-layer metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"text/tabwriter"
)

const (
	defaultSeed    = 1
	defaultSeconds = 30 // BENCHMARK.json's run_seconds
	defaultSetups  = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run; empty runs those of BENCHMARK.json")
		seed      = fs.Uint64("seed", defaultSeed, "seed of the corpus, the queries and the arrival schedule")
		seconds   = fs.Float64("seconds", defaultSeconds, "seconds one run measures for, warm-up included")
		trace     = fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		reps      = fs.Int("reps", 1, "repetitions of every run; the report gives their median, min and max")
		out       = fs.String("out", "", "write the report (stamp and every metric) to this file")
		dataDir   = fs.String("data", filepath.Join(".bench_build", "data"), "parent of the temporary data directories")
		outDir    = fs.String("trace-dir", filepath.Join("bench", "out"), "where a traced run writes <workload>.trace.jsonl")
		specPath  = fs.String("spec", "BENCHMARK.json", "the benchmark contract: metric names, directions and bounds")
		compare   = fs.Bool("compare", false, "compare two reports: bench -compare base.json new.json")
		selfcheck = fs.Bool("selfcheck", false, "run two full sets of this commit and compare them")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two report files, got %d", fs.NArg()))
		}
		return compareFiles(*specPath, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	selected := boundedWorkloads()
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	opts := runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0, setups: defaultSetups, dataDir: *dataDir, outDir: *outDir}
	if *selfcheck {
		spec, err := loadSpec(*specPath)
		if err != nil {
			return fail(err)
		}
		var sets [2]report
		for i := range sets {
			if sets[i], err = runSet(selected, opts, max(*reps, 3), stderr); err != nil {
				return fail(err)
			}
		}
		return compareReports(spec, sets[0], sets[1], stdout)
	}
	return runAndReport(selected, opts, *reps, *out, stdout, stderr)
}

// runAndReport runs the selected workloads reps times, prints every
// metric by name on stderr, writes the report to out when that is set,
// and returns the exit code: 1 when an operation failed or an answer
// was wrong.
func runAndReport(selected []workload, o runOpts, reps int, out string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep, err := runSet(selected, o, reps, stderr)
	if err != nil {
		return fail(err)
	}
	if out != "" {
		if err := writeReport(out, rep); err != nil {
			return fail(err)
		}
	}
	printReport(stderr, rep)
	code := 0
	for _, a := range rep.Workloads {
		if !a.Correct {
			fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed: %v\n", a.Workload, a.Failed, a.Attempted, a.Notes)
			code = 1
		}
	}
	if len(rep.Workloads) == 1 && reps == 1 {
		// The driver's protocol: the last line of standard output is the
		// run's verdict and metrics as one JSON object.
		a := rep.Workloads[0]
		line := driverLine{Correct: a.Correct, Attempted: a.Attempted, Failed: a.Failed, Metrics: map[string]driverMetric{}}
		for name, s := range a.Metrics {
			line.Metrics[name] = driverMetric{Value: s.Median, Unit: s.Unit}
		}
		if err := json.NewEncoder(stdout).Encode(line); err != nil {
			return fail(err)
		}
	}
	return code
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

// summary is one metric over a run's repetitions.
type summary struct {
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"` // observations behind one repetition's value
	Values  []float64 `json:"values"`
}

// aggregate is one workload's repetitions, end-to-end or traced.
type aggregate struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

// report is a result file: what was measured, on what, with which
// inputs.
type report struct {
	Stamp     stamp       `json:"stamp"`
	Workloads []aggregate `json:"workloads"`
}

// runSet runs every selected workload reps times and summarizes.
func runSet(selected []workload, o runOpts, reps int, progress io.Writer) (report, error) {
	rep := report{Stamp: newStamp(o, reps)}
	for _, w := range selected {
		a := aggregate{Workload: w.name, Trace: o.trace, Correct: true, Metrics: map[string]summary{}}
		for r := 0; r < max(1, reps); r++ {
			fmt.Fprintf(progress, "bench: %s seed=%d trace=%v repetition %d/%d\n", w.name, o.seed, o.trace, r+1, max(1, reps))
			res, err := runWorkload(w, o)
			if err != nil {
				return rep, fmt.Errorf("%s: %w", w.name, err)
			}
			rep.Stamp.CorpusDigest[w.name] = res.Digest
			a.Correct = a.Correct && res.Correct
			a.Attempted += res.Attempted
			a.Failed += res.Failed
			a.Notes = append(a.Notes, res.Notes...)
			for name, m := range res.Metrics {
				s := a.Metrics[name]
				s.Unit, s.Samples = m.Unit, m.Samples
				s.Values = append(s.Values, m.Value)
				a.Metrics[name] = s
			}
		}
		for name, s := range a.Metrics {
			s.Median, s.Min, s.Max = percentile(s.Values, 0.5), slices.Min(s.Values), slices.Max(s.Values)
			a.Metrics[name] = s
		}
		rep.Workloads = append(rep.Workloads, a)
	}
	return rep, nil
}

func writeReport(path string, rep report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// printReport prints every metric by name with its unit.
func printReport(w io.Writer, rep report) {
	st := rep.Stamp
	fmt.Fprintf(w, "commit %s dirty=%v %s | %s nproc=%d GOMAXPROCS=%d | seed=%d seconds=%g repetitions=%d\n",
		st.Commit, st.Dirty, st.GoVersion, st.CPUModel, st.NumCPU, st.GOMAXPROCS, st.Seed, st.Seconds, st.Repetitions)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, a := range rep.Workloads {
		fmt.Fprintf(tw, "\n%s\ttrace=%v\tcorrect=%v\tattempted=%d\tfailed=%d\tdigest=%.12s\t\n",
			a.Workload, a.Trace, a.Correct, a.Attempted, a.Failed, st.CorpusDigest[a.Workload])
		names := make([]string, 0, len(a.Metrics))
		for name := range a.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := a.Metrics[name]
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\tmin %.6g\tmax %.6g\tn=%d\t\n", name, s.Median, s.Unit, s.Min, s.Max, s.Samples)
		}
		for _, n := range a.Notes {
			fmt.Fprintf(tw, "  note: %s\n", n)
		}
	}
	tw.Flush()
}
