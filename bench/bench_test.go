package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const specFile = "../BENCHMARK.json"

func TestCorpusDeterminism(t *testing.T) {
	w, _ := findWorkload("serve-durable-mixed")
	digest := func(seed uint64) string { return newCorpus(seed, 400).digest(w.mix, w.rate) }
	a, b, c := digest(7), digest(7), digest(8)
	if a != b {
		t.Errorf("seed 7 gave digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same digest %s", a)
	}
	// The digest must not depend on whether the corpus was loaded first.
	loaded := newCorpus(7, 400)
	loaded.walk(func(string, []byte) {})
	if got := loaded.digest(w.mix, w.rate); got != a {
		t.Errorf("digest after a walk %s, before %s", got, a)
	}
}

// TestSeedsCostTheSame pins the stratified generator: two seeds give
// different text but the same document sizes, and every block of the
// schedule holds the workload's mix exactly.
func TestSeedsCostTheSame(t *testing.T) {
	sizes := func(docs [][]byte) []int {
		out := make([]int, len(docs))
		for i, d := range docs {
			out[i] = len(d)
		}
		slices.Sort(out)
		return out
	}
	a, b := newCorpus(1, 2000), newCorpus(2, 2000)
	if bytes.Equal(a.hitDocs[0], b.hitDocs[0]) {
		t.Error("seeds 1 and 2 gave the same first query")
	}
	for name, sets := range map[string][2][][]byte{
		"bases": {a.bases, b.bases}, "hit queries": {a.hitDocs, b.hitDocs},
		"miss queries": {a.missDocs, b.missDocs}, "payloads": {a.payloads, b.payloads},
	} {
		if !slices.Equal(sizes(sets[0]), sizes(sets[1])) {
			t.Errorf("%s: seeds 1 and 2 gave different document sizes", name)
		}
	}
	for _, w := range workloads {
		p := newPlanner(a, w.mix, w.rate)
		for i := 0; i < deleteLag; i++ { // until deletes have names to pick from
			p.plan()
		}
		for p.next%mixBlock != 0 {
			p.plan()
		}
		for block := 0; block < 20; block++ {
			var got [4]int
			for i := 0; i < mixBlock; i++ {
				o := p.plan()
				got[o.kind]++
			}
			if want := [4]int{opSearchHit: w.mix.hit, opSearchMiss: w.mix.miss, opIngest: w.mix.ingest, opDelete: w.mix.del}; got != want {
				t.Fatalf("%s block %d: operations by kind %v, want %v", w.name, block, got, want)
			}
		}
	}
}

func TestPlannerDeletesOnlyWrittenNames(t *testing.T) {
	w, _ := findWorkload("serve-durable-mixed")
	p := newPlanner(newCorpus(3, 400), w.mix, w.rate)
	writtenAt := map[string]int{}
	deletes := 0
	for i := 0; i < 5000; i++ {
		o := p.plan()
		switch o.kind {
		case opIngest:
			if len(o.names) < 1 || len(o.names) > w.mix.maxBatch {
				t.Fatalf("op %d ingests %d records", i, len(o.names))
			}
			for _, n := range o.names {
				writtenAt[n] = i
			}
		case opDelete:
			deletes++
			at, ok := writtenAt[o.names[0]]
			if !ok || i-at < deleteLag {
				t.Fatalf("op %d deletes %s, written at op %d (known %v)", i, o.names[0], at, ok)
			}
			delete(writtenAt, o.names[0])
		}
	}
	if deletes == 0 {
		t.Error("no delete in 5000 operations of a 10 % delete mix")
	}
}

func TestResolveParents(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{Layer: "server", Op: "search", Req: -1, Parent: -1, Start: 30, End: 60}, // enclosed by its sibling below in time
		{Layer: "client", Op: "search", Req: 9, Parent: -1, Start: 0, End: 100},
		{Layer: "server", Op: "search", Req: -1, Parent: -1, Start: 20, End: 80},
		{Layer: "cluster", Op: "search", Req: 9, Parent: -1, Start: 10, End: 90},
		{Layer: "server", Op: "other", Req: -1, Parent: -1, Start: 200, End: 210}, // background call, no request
	}
	spans := r.resolve()
	want := []struct {
		layer  string
		parent int
		req    int64
	}{{"client", -1, 9}, {"cluster", 0, 9}, {"server", 1, 9}, {"server", 1, 9}, {"server", -1, -1}}
	for i, w := range want {
		if s := spans[i]; s.Layer != w.layer || s.Parent != w.parent || s.Req != w.req {
			t.Errorf("span %d = %+v, want layer %s parent %d req %d", i, s, w.layer, w.parent, w.req)
		}
	}
	m := metricSet{}
	spanMetrics(spans, m)
	if got := m["cluster.fanout.backend_calls_per_search"].Value; got != 2 {
		t.Errorf("backend calls per search = %v, want 2", got)
	}
	if got := m["cluster.fanout.self_p50_us"].Value; got != (80-60)/1e3 {
		t.Errorf("fan-out self time = %v us, want 0.02", got)
	}
}

// TestQuantileMatchesDriver pins spread to the arithmetic the benchmark
// driver uses: Python's statistics.quantiles(values, n=4).
func TestQuantileMatchesDriver(t *testing.T) {
	v := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 30}
	// statistics.quantiles(v, n=4) == [11.75, 14.5, 17.25]; statistics.median(v) == 14.5
	if got, want := spread(v), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestSlowness pins the canary's index: the mean of the two parts'
// median shares of their nominal times, over all the clients' slices.
func TestSlowness(t *testing.T) {
	if got := slowness(); got != 1 {
		t.Errorf("slowness of no slices = %v, want 1", got)
	}
	a := &canary{core: []float64{1, 1.2, 9}, mem: []float64{2, 2, 2}}
	b := &canary{core: []float64{1.2, 1.4}, mem: []float64{1, 2}}
	if got, want := slowness(a, b), (1.2+2)/2; got != want {
		t.Errorf("slowness = %v, want %v", got, want)
	}
	var c canary
	for i := 0; i < canaryMemWindows+1; i++ {
		c.slice()
	}
	if len(c.core) != canaryMemWindows+1 || len(c.mem) != len(c.core) || slowness(&c) <= 0 {
		t.Errorf("%d slices recorded %d core and %d memory times, slowness %v", canaryMemWindows+1, len(c.core), len(c.mem), slowness(&c))
	}
}

// testReport is a report of one workload with the given throughput
// repetitions and every other end-to-end metric of spec steady at 1.
func testReport(spec benchSpec, throughput ...float64) report {
	sorted := slices.Clone(throughput)
	slices.Sort(sorted)
	metrics := map[string]summary{}
	for _, sm := range spec.EndToEnd {
		metrics[sm.Name] = summary{Median: 1, Unit: sm.Unit, Values: []float64{1, 1, 1, 1, 1}}
	}
	metrics["throughput_ops_s"] = summary{Median: sorted[len(sorted)/2], Unit: "ops/s", Values: throughput}
	return report{Workloads: []aggregate{{Workload: "serve-lsh-hit", Correct: true, Metrics: metrics}}}
}

func TestCompareVerdicts(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	base := testReport(spec, 1000, 1001, 1002, 1003, 1004)
	wrong := testReport(spec, 1000, 1001, 1002, 1003, 1004)
	wrong.Workloads[0].Correct = false
	noMetric := testReport(spec, 1000, 1001, 1002, 1003, 1004)
	delete(noMetric.Workloads[0].Metrics, "cpu_ms_per_op")
	for _, tc := range []struct {
		name    string
		next    report
		verdict string
		code    int
	}{
		{"same", testReport(spec, 1000, 1001, 1002, 1003, 1004), " ok", 0},
		{"half the throughput", testReport(spec, 500, 501, 502, 503, 504), "REGRESSION", 1},
		{"spread wider than the bound", testReport(spec, 500, 700, 1000, 1300, 1500), "unresolved", 0},
		{"wrong answers", wrong, "REGRESSION", 1},
		{"a metric no longer reported", noMetric, "MISSING", 1},
		{"a workload no longer run", report{}, "MISSING", 1},
	} {
		var out bytes.Buffer
		if code := compareReports(spec, base, tc.next, &out); code != tc.code || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s", tc.name, code, tc.code, tc.verdict, out.String())
		}
	}
}

// TestWorkloadsShort runs every workload, end to end and traced, at a
// small size, and holds what the command prints to BENCHMARK.json: the same workloads, the same metric names
// and units, finite values and no failed operation.
func TestWorkloadsShort(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var names, ours []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range boundedWorkloads() {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, harness workloads %v", names, ours)
	}
	names = names[:0]
	for _, w := range workloads { // the disk-bound workload too: it is run on request
		names = append(names, w.name)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, harness default %d", spec.RunSeconds, defaultSeconds)
	}
	dir := t.TempDir()
	for _, name := range names {
		for trace, want := range map[string][]specMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			w, _ := findWorkload(name)
			w.records = 2000
			code := runAndReport([]workload{w}, runOpts{
				seed: 5, seconds: 1.2, trace: trace == "1", setups: 1,
				dataDir: filepath.Join(dir, "data"), outDir: filepath.Join(dir, "out"),
			}, 1, "", &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line driverLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%s: last line of stdout: %v", name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d\n%s", name, trace, line.Correct, line.Failed, line.Attempted, stderr.String())
			}
			for _, sm := range want {
				got, ok := line.Metrics[sm.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", name, trace, sm.Name)
				case got.Unit != sm.Unit:
					t.Errorf("%s trace=%s: metric %s has unit %q, BENCHMARK.json says %q", name, trace, sm.Name, got.Unit, sm.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%s: metric %s = %v", name, trace, sm.Name, got.Value)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, sm.Name, got.Value)
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json lists %d", name, trace, len(line.Metrics), len(want))
			}
			if trace == "1" {
				if got := line.Metrics["failed_share"].Value; got != 0 {
					t.Errorf("%s: failed_share = %v", name, got)
				}
			}
		}
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "out", "*.trace.jsonl")); len(matches) != len(names) {
		t.Errorf("trace files written: %v, want one per workload", matches)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "data", "*")); len(left) != 0 {
		t.Errorf("data directories left behind: %v", left)
	}
}

// TestReportRoundTrip runs two repetitions into a report file and
// compares the file with itself.
func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	var stdout, stderr bytes.Buffer
	w, _ := findWorkload("serve-lsh-hit")
	w.records = 1000
	code := runAndReport([]workload{w}, runOpts{
		seed: defaultSeed, seconds: 0.6, setups: 1, dataDir: filepath.Join(dir, "data"),
	}, 2, path, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	rep, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stamp
	if st.Seed != defaultSeed || st.Repetitions != 2 || st.GoVersion == "" || st.NumCPU < 1 || st.GOMAXPROCS < 1 ||
		len(st.CorpusDigest["serve-lsh-hit"]) != 64 || st.Rates["serve-lsh-hit"] == 0 {
		t.Errorf("incomplete stamp: %+v", st)
	}
	if n := len(rep.Workloads[0].Metrics["throughput_ops_s"].Values); n != 2 {
		t.Errorf("%d throughput values for 2 repetitions", n)
	}
	stdout.Reset()
	if code := run([]string{"-spec", specFile, "-compare", path, path}, &stdout, &stderr); code != 0 {
		t.Errorf("a report compared with itself: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "throughput_ops_s") {
		t.Errorf("comparison table lacks throughput_ops_s:\n%s", stdout.String())
	}
}
