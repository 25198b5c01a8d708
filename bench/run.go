package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one row of the workload table: a corpus size, an
// arrangement, a search mode, an operation mix and the frozen open-loop
// arrival rate.
type workload struct {
	name      string
	records   int
	stack     stackSpec
	snapshots bool   // a periodic snapshot once per window, so the closed loop holds 32 of them
	mode      string // "mode" of every search request; "" is the engine's default, LSH
	mix       mix
	// diskBound marks a workload whose closed loop measures the
	// sandbox's disk: the WAL of serve-durable-mixed is inside fsync for
	// two thirds of the loop whatever the host does, so its throughput
	// is the reciprocal of the host's fsync latency, which moves tenfold
	// for minutes at a time and which no canary of the CPU follows. It
	// runs when named (-workload), for its per-layer numbers and its
	// durability gate; it is not in BENCHMARK.json and not in a default
	// run, whose every workload every bound applies to.
	diskBound bool
	// rate is the open-loop arrival rate per second: a tenth of the
	// workload's closed-loop throughput at the commit that added the
	// benchmark, two significant figures, and frozen since so that
	// latencies stay comparable across commits. At this load a request
	// rarely queues, so its latency is the length of the path it takes;
	// at a quarter of capacity the reference machine's slow spells turned
	// into queues, and the median latency of ten runs spread four times
	// as wide.
	rate float64
}

var workloads = []workload{
	{
		name: "serve-lsh-hit", records: 50_000,
		stack: stackSpec{backends: 1},
		mix:   mix{hit: 100}, rate: 1200,
	},
	{
		name: "serve-exact-scan", records: 50_000,
		stack: stackSpec{backends: 1}, mode: "exact",
		mix: mix{hit: 100}, rate: 120,
	},
	{
		name: "serve-durable-mixed", records: 50_000,
		stack: stackSpec{backends: 1}, snapshots: true, diskBound: true,
		mix: mix{hit: 36, miss: 4, ingest: 50, del: 10, maxBatch: 8}, rate: 100,
	},
	{
		name: "cluster-r2-mixed", records: 30_000,
		stack: stackSpec{backends: 3, replication: 2},
		mix:   mix{hit: 90, ingest: 10, maxBatch: 1}, rate: 230,
	},
}

// boundedWorkloads are the workloads of BENCHMARK.json, in its order.
func boundedWorkloads() []workload {
	var out []workload
	for _, w := range workloads {
		if !w.diskBound {
			out = append(out, w)
		}
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A run is cut into runWindows windows of --seconds/runWindows each:
// a warm-up and then, untraced, one closed loop for the rest of the run.
// The traced run keeps an open-loop slice for latencies from due time
// and the load generator's own health, then runs the closed loop with
// one client in alternating slices, spans off and on, so the difference
// between the two is the tracing overhead and machine drift cancels.
const (
	runWindows        = 36
	warmWindows       = 4
	tracedOpenWindows = 8
	tracedSlices      = 6 // even: half recorded, half not
	sliceWindows      = (runWindows - warmWindows - tracedOpenWindows) / tracedSlices
)

type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	setups  int    // set-up repetitions of an untraced run; setup_s is their median
	dataDir string // parent of the temporary data directories
	outDir  string // where the trace is written; "" writes nothing
}

// result is one run of one workload.
type result struct {
	Workload  string    `json:"workload"`
	Trace     bool      `json:"trace"`
	Digest    string    `json:"corpus_digest"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	Notes     []string  `json:"notes,omitempty"`
}

// heapAlloc is the live Go heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runWorkload sets the workload's arrangement up, drives it through
// the front door, verifies its answers and tears it down.
func runWorkload(w workload, o runOpts) (res result, err error) {
	res = result{Workload: w.name, Trace: o.trace, Metrics: metricSet{}}
	m := res.Metrics
	window := time.Duration(o.seconds / runWindows * float64(time.Second))
	if w.snapshots {
		w.stack.snapshotEvery = window
	}
	c := newCorpus(o.seed, w.records)
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return res, err
	}

	// Set-up, repeated: every repetition builds the whole arrangement
	// from the seed in a fresh directory; the last one is kept and used.
	heapBefore := heapAlloc()
	var s *stack
	var st setupTimes
	var dir string
	var totals, measured []float64 // set-up times at the reference machine speed, and as measured
	setups := max(1, o.setups)
	if o.trace {
		setups = 1 // setup_s is not a per-layer metric; the set-up spans come from the one set-up
	}
	for i := 0; i < setups; i++ {
		if s != nil {
			err = s.close()
			os.RemoveAll(dir)
			if err != nil {
				return res, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
		}
		if dir, err = os.MkdirTemp(o.dataDir, w.name+"-"); err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		// The canary runs beside the set-up, as it does beside the closed
		// loop: setup_s is at the reference machine speed too.
		var can canary
		can.runBeside(func() { s, st, err = newStack(w.stack, c, dir, rec) })
		if err != nil {
			s.close()
			return res, fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, st.total.Seconds()/slowness(&can))
		measured = append(measured, st.total.Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			err = errors.Join(err, s.close())
		}
	}()
	heap := heapAlloc() - heapBefore
	res.Digest = c.digest(w.mix, w.rate) // the first set-up's walk hashed the records

	l := newLoadgen(s.front, c, w, rec)
	defer l.close()
	l.run(false, clients, warmWindows, window)
	if l.firstFailure != "" {
		res.Notes = append(res.Notes, "warm-up: "+l.firstFailure)
	}

	var open, closedLoop, untracedLoop loop
	var before, after stats
	if !o.trace {
		closedLoop = append(closedLoop, l.run(false, clients, runWindows-warmWindows, window))
	} else {
		open = append(open, l.run(true, 0, tracedOpenWindows, window))
		if before, err = l.readStats(s); err != nil {
			return res, err
		}
		for i := 0; i < tracedSlices; i++ {
			rec.on.Store(i%2 == 1)
			p := l.run(false, 1, sliceWindows, window)
			if rec.on.Swap(false) {
				closedLoop = append(closedLoop, p)
			} else {
				untracedLoop = append(untracedLoop, p)
			}
		}
		if after, err = l.readStats(s); err != nil {
			return res, err
		}
	}
	for _, lp := range []loop{open, closedLoop, untracedLoop} {
		n := len(lp.samples())
		res.Attempted += n
		res.Failed += n - lp.succeeded()
	}
	if l.firstFailure != "" {
		res.Notes = append(res.Notes, "first failed operation: "+l.firstFailure)
	}

	// Quiesced: every client has returned. Check answers at the front
	// door, then (traced) replay the layers directly.
	v, err := l.verify(s, c, w)
	if err != nil {
		return res, fmt.Errorf("verify: %w", err)
	}
	if o.trace {
		spans := rec.resolve()
		spanMetrics(spans, m)
		if o.outDir != "" {
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				return res, err
			}
			if err := writeTrace(filepath.Join(o.outDir, w.name+".trace.jsonl"), spans); err != nil {
				return res, err
			}
		}
		replayLayers(s, l, w, m)
	}

	// Teardown writes the final snapshot; what is on disk afterwards is
	// what disk_bytes_per_record and the durability gate look at.
	closed = true
	if err := s.close(); err != nil {
		return res, fmt.Errorf("teardown: %w", err)
	}
	disk, err := s.diskBytes()
	if err != nil {
		return res, err
	}
	live, err := l.verifyDurable(s, c, &v)
	if err != nil {
		return res, fmt.Errorf("verify after reopen: %w", err)
	}
	res.Attempted += v.checked
	res.Failed += v.wrong
	res.Notes = append(res.Notes, v.notes...)
	res.Correct = res.Failed == 0

	if !o.trace {
		m.setN("setup_s", percentile(totals, 0.5), "s", len(totals))
		res.Notes = append(res.Notes, endToEnd(m, closedLoop), fmt.Sprintf("set-ups as measured: %.3f s", measured))
		m.setN("recall_at_10", v.recall, "ratio", v.recallQueries)
		m.set("heap_mb", float64(heap)/(1<<20), "MB")
		m.set("disk_bytes_per_record", ratio(float64(disk), float64(live)), "B")
		return res, nil
	}
	setupMetrics(m, st, c.records)
	openLatency(m, open)
	loadgenMetrics(m, open, untracedLoop, closedLoop)
	processMetrics(m, closedLoop)
	statsMetrics(m, before, after, append(closedLoop, untracedLoop...), l.refused)
	m.set("failed_share", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	return res, nil
}

// loop is the slices of one kind of load (open, or closed) in a run.
type loop []phase

func (lp loop) samples() []sample {
	var out []sample
	for _, p := range lp {
		out = append(out, p.samples...)
	}
	return out
}

func (lp loop) succeeded() int {
	n := 0
	for _, s := range lp.samples() {
		if !s.failed {
			n++
		}
	}
	return n
}

func (lp loop) elapsed() time.Duration {
	var d time.Duration
	for _, p := range lp {
		d += p.elapsed
	}
	return d
}

func (lp loop) cpu() time.Duration {
	var d time.Duration
	for _, p := range lp {
		d += p.cpu
	}
	return d
}

// latencies returns the successful latencies in ms of the operations
// keep selects.
func (lp loop) latencies(keep func(opKind) bool) []float64 {
	var out []float64
	for _, s := range lp.samples() {
		if keep(s.kind) && !s.failed {
			out = append(out, float64(s.latency)/1e6)
		}
	}
	return out
}

func isSearch(k opKind) bool { return !k.isWrite() }

func (lp loop) canaries() []*canary {
	var out []*canary
	for _, p := range lp {
		out = append(out, p.canaries...)
	}
	return out
}

// endToEnd sets the closed loop's rate and cost over the whole of it:
// every stall inside the loop (a collection, a snapshot, an fsync) is in
// both. Both are reported at the reference machine speed (canary.go);
// the note has them as measured.
func endToEnd(m metricSet, closed loop) (note string) {
	ops := closed.succeeded()
	rate := ratio(float64(ops), closed.elapsed().Seconds())
	cost := ratio(closed.cpu().Seconds()*1e3, float64(ops))
	slow := slowness(closed.canaries()...)
	m.setN("throughput_ops_s", rate*slow, "ops/s", ops)
	m.setN("cpu_ms_per_op", cost/slow, "ms", ops)
	return fmt.Sprintf("machine slowness %.3f; as measured: %.1f ops/s, %.4f ms of CPU per operation", slow, rate, cost)
}

// openLatency sets the traced run's open-loop latencies from due time:
// of searches, and of the acknowledgement of ingests and deletes, which
// is 0 on a read-only workload. They do not repeat closely enough
// between runs on the reference machine to carry a bound.
func openLatency(m metricSet, open loop) {
	for _, l := range []struct {
		name string
		keep func(opKind) bool
	}{{"search", isSearch}, {"write", opKind.isWrite}} {
		ms := open.latencies(l.keep)
		m.setN(l.name+"_p50_ms", percentile(ms, 0.50), "ms", len(ms))
		m.setN(l.name+"_p99_ms", percentile(ms, 0.99), "ms", len(ms))
	}
}

func setupMetrics(m metricSet, st setupTimes, records int) {
	m.set("core.add.bulk_records_per_s", ratio(float64(records), st.add.Seconds()), "rec/s")
	m.set("core.snapshot.s", st.snapshot.Seconds(), "s")
	m.set("core.open.s", st.open.Seconds(), "s")
	m.set("core.open.replayed_frames", float64(st.replayed), "count")
}

// loadgenMetrics report on the instrument itself: how late the
// dispatcher released a due operation, whether the schedule was kept
// (the operations due inside the open slices were all answered by their
// end, so no backlog grew), what recording spans cost the closed loop,
// and how slow the canary found the machine during that loop.
func loadgenMetrics(m metricSet, open, untraced, traced loop) {
	var late []float64
	var scheduled time.Duration
	for _, p := range open {
		scheduled += p.scheduled
		for _, s := range p.samples {
			late = append(late, float64(s.late)/1e3)
		}
	}
	m.setN("loadgen.lateness_p99_us", percentile(late, 0.99), "us", len(late))
	m.set("loadgen.achieved_rate_share", min(1, ratio(scheduled.Seconds(), open.elapsed().Seconds())), "ratio")
	off := percentile(untraced.latencies(isSearch), 0.50)
	on := percentile(traced.latencies(isSearch), 0.50)
	m.set("trace.overhead_share", ratio(on-off, off), "ratio")
	m.set("loadgen.machine_slowness", slowness(append(untraced.canaries(), traced.canaries()...)...), "ratio")
}

func processMetrics(m metricSet, lp loop) {
	var mem memDelta
	for _, p := range lp {
		mem.mallocs += p.mem.mallocs
		mem.gcPause += p.mem.gcPause
		mem.gcCycles += p.mem.gcCycles
	}
	ops, secs := float64(lp.succeeded()), lp.elapsed().Seconds()
	m.set("process.allocs_per_op", ratio(float64(mem.mallocs), ops), "count")
	m.set("process.gc_pause_ms_per_s", ratio(mem.gcPause.Seconds()*1e3, secs), "ms/s")
	m.set("process.gc_cycles_per_s", ratio(float64(mem.gcCycles), secs), "1/s")
}

// statsMetrics turns /stats deltas across the traced run's closed loop
// (lp, recorded and unrecorded slices together) into per-layer counts
// and ratios. Engine counters are summed over the backends.
func statsMetrics(m metricSet, before, after stats, lp loop, refused int) {
	var searches, scanned, survived, rescored, fsyncs, fsyncNanos, appends float64
	var batches, batched, s5xx, peak, resident, mapped, compactions, dead, rows, backendRecords float64
	for i, b := range after.backends {
		a := before.backends[i]
		searches += float64(b.Requests.Searches - a.Requests.Searches)
		if t, t0 := b.Engine.Tier, a.Engine.Tier; t != nil && t0 != nil {
			scanned += float64(t.PrefilterScanned - t0.PrefilterScanned)
			survived += float64(t.PrefilterSurvived - t0.PrefilterSurvived)
			rescored += float64(t.Rescored - t0.Rescored)
			resident += float64(t.ResidentBytes)
			mapped += float64(t.MappedBytes)
		}
		if w, w0 := b.Engine.WAL, a.Engine.WAL; w != nil && w0 != nil {
			fsyncs += float64(w.Fsyncs - w0.Fsyncs)
			fsyncNanos += float64(w.FsyncNanos - w0.FsyncNanos)
			appends += float64(w.Appends - w0.Appends)
		}
		batches += float64(b.Ingest.Batches - a.Ingest.Batches)
		batched += float64(b.Ingest.BatchedRecords - a.Ingest.BatchedRecords)
		s5xx += float64(b.Requests.Status5xx - a.Requests.Status5xx)
		peak = max(peak, float64(b.Requests.PeakInFlight))
		compactions += float64(b.Engine.Compactions)
		dead += float64(b.Engine.DeadRows)
		rows += float64(b.Engine.Records + b.Engine.DeadRows)
		backendRecords += float64(b.Engine.Records)
	}
	m.set("core.search.rows_scanned_per_query", ratio(scanned, searches), "count")
	m.set("core.tier.survival_rate", ratio(survived, scanned), "ratio")
	m.set("core.tier.rescored_per_query", ratio(rescored, searches), "count")
	m.set("core.wal.fsync_mean_us", ratio(fsyncNanos, fsyncs)/1e3, "us")
	m.set("core.wal.appends_per_fsync", ratio(appends, fsyncs), "ratio")
	m.set("core.compactions", compactions, "count")
	m.set("core.tombstone_ratio", ratio(dead, rows), "ratio")
	m.set("core.resident_bytes_per_record", ratio(resident, backendRecords), "B")
	m.set("core.mapped_bytes_per_record", ratio(mapped, backendRecords), "B")
	m.set("server.ingest.records_per_batch", ratio(batched, batches), "ratio")
	m.set("server.ingest.refused", float64(refused), "count")
	m.set("server.requests.status_5xx", s5xx, "count")
	m.set("server.peak_in_flight", peak, "count")

	var routed, retries, partials, quorum, shed, hints float64
	if after.coord != nil {
		routed = float64(after.coord.RecordsRouted - before.coord.RecordsRouted)
		retries = float64(after.coord.Retries - before.coord.Retries)
		partials = float64(after.coord.PartialResults - before.coord.PartialResults)
		quorum = float64(after.coord.QuorumFailures - before.coord.QuorumFailures)
		shed = float64(after.coord.Shed - before.coord.Shed)
		hints = float64(after.coord.Hints.Queued - before.coord.Hints.Queued)
	}
	sent := 0
	for _, s := range lp.samples() {
		if s.kind == opIngest {
			sent += s.records
		}
	}
	m.set("cluster.ingest.replica_writes_per_record", ratio(routed, float64(sent)), "ratio")
	m.set("cluster.retries", retries, "count")
	m.set("cluster.partials", partials, "count")
	m.set("cluster.quorum_failures", quorum, "count")
	m.set("cluster.shed", shed, "count")
	m.set("cluster.hints_queued", hints, "count")
}
