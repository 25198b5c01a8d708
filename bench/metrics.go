package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

// metric is one reported value. Samples is how many observations it
// summarizes (0 for a single reading such as a byte count).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // an empty denominator: the layer saw no such work
	}
	m[name] = metric{Value: v, Unit: unit}
}

func (m metricSet) setN(name string, v float64, unit string, n int) {
	m.set(name, v, unit)
	e := m[name]
	e.Samples = n
	m[name] = e
}

// percentile is the nearest-rank q-quantile of v, 0 when v is empty.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[min(len(s)-1, int(q*float64(len(s))))]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// stamp identifies what a result was measured on and with.
type stamp struct {
	Commit       string             `json:"commit"`
	Dirty        bool               `json:"dirty"`
	GoVersion    string             `json:"go_version"`
	CPUModel     string             `json:"cpu_model"`
	NumCPU       int                `json:"nproc"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	Seed         uint64             `json:"seed"`
	Seconds      float64            `json:"seconds"`
	CorpusDigest map[string]string  `json:"corpus_digest"`
	Rates        map[string]float64 `json:"open_loop_rate_per_s"`
	Repetitions  int                `json:"repetitions"`
}

// newStamp reads the environment. Outside a git work tree (the
// benchmark driver's checkout is one) the commit is "unknown".
func newStamp(o runOpts, reps int) stamp {
	st := stamp{
		Commit: "unknown", GoVersion: runtime.Version(), CPUModel: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Repetitions: reps,
		CorpusDigest: map[string]string{}, Rates: map[string]float64{},
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		st.Dirty = err != nil || len(status) > 0
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				st.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	for _, w := range workloads {
		st.Rates[w.name] = w.rate
	}
	return st
}
