package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json, the contract this benchmark is held to.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// spread is the distance between the first and third quartile of v as
// a share of its median, the run-to-run noise a difference has to
// exceed. Fewer than four values fall back to the full range.
func spread(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	med := (s[(len(s)-1)/2] + s[len(s)/2]) / 2
	if med == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return (hi - lo) / med
}

// quantile interpolates like Python's statistics.quantiles (exclusive
// method) on sorted s, which is what the benchmark driver computes.
func quantile(s []float64, q float64) float64 {
	pos := q*float64(len(s)+1) - 1
	i := int(pos)
	switch {
	case pos <= 0:
		return s[0]
	case i >= len(s)-1:
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func compareFiles(specPath, basePath, newPath string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err == nil {
		var base, next report
		if base, err = readReport(basePath); err == nil {
			if next, err = readReport(newPath); err == nil {
				return compareReports(spec, base, next, stdout)
			}
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 1
}

// compareReports prints one row per (end-to-end metric, workload)
// pairing with its base and ratio, and applies the spec's bounds: a
// pairing whose median worsened by more than its bound is a regression,
// unless the repetitions' own spread exceeds the bound, in which case
// the pairing is unresolved, not unchanged. A workload of the base that
// the new report lacks, and a metric either side lacks or the base has
// at 0, is MISSING: nothing was compared, which is not a pass. It
// returns 1 on any regression or missing pairing.
func compareReports(spec benchSpec, base, next report, w io.Writer) int {
	if base.Stamp.Seed != next.Stamp.Seed {
		fmt.Fprintf(w, "warning: seeds differ (%d vs %d): inputs are not the same\n", base.Stamp.Seed, next.Stamp.Seed)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tunit\tnew/base\tbound\tspread\tverdict\t")
	regressions := 0
	for _, b := range base.Workloads {
		i := slices.IndexFunc(next.Workloads, func(a aggregate) bool { return a.Workload == b.Workload && a.Trace == b.Trace })
		if b.Trace {
			continue
		}
		if i < 0 {
			fmt.Fprintf(tw, "%s\t(every metric)\t\t\t\t\t\t\tMISSING\t\n", b.Workload)
			regressions++
			continue
		}
		n := next.Workloads[i]
		for _, sm := range spec.EndToEnd {
			bm, ok1 := b.Metrics[sm.Name]
			nm, ok2 := n.Metrics[sm.Name]
			if !ok1 || !ok2 || bm.Median == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t%s\t\t%.3f\t\tMISSING\t\n", b.Workload, sm.Name, sm.Unit, sm.Bound)
				regressions++
				continue
			}
			worse := nm.Median/bm.Median - 1
			if sm.Better == "higher" {
				worse = 1 - nm.Median/bm.Median
			}
			noise := max(spread(bm.Values), spread(nm.Values))
			verdict := "ok"
			switch {
			case noise > sm.Bound:
				verdict = "unresolved"
			case worse > sm.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.4f\t%.3f\t%.4f\t%s\t\n",
				b.Workload, sm.Name, bm.Median, nm.Median, sm.Unit, nm.Median/bm.Median, sm.Bound, noise, verdict)
		}
		if !n.Correct {
			fmt.Fprintf(tw, "%s\tcorrectness\t\t\t\t\t\t\tREGRESSION (%d of %d failed)\t\n", n.Workload, n.Failed, n.Attempted)
			regressions++
		}
	}
	tw.Flush()
	if regressions > 0 {
		fmt.Fprintf(w, "%d regressed or missing\n", regressions)
		return 1
	}
	return 0
}
