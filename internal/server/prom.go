package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"sketchengine/internal/fault"
)

// handleMetrics renders the server's counters in the Prometheus text
// exposition format (hand-rolled; the format is a few lines of fprintf
// and not worth a dependency). Everything is namespaced under
// sketchengine_.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	st := s.eng.Stats()
	var buf bytes.Buffer

	counter := func(name, help string, v int64) {
		fmt.Fprintf(&buf, "# HELP sketchengine_%s %s\n# TYPE sketchengine_%s counter\nsketchengine_%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&buf, "# HELP sketchengine_%s %s\n# TYPE sketchengine_%s gauge\nsketchengine_%s %s\n", name, help, name, name,
			strconv.FormatFloat(v, 'g', -1, 64))
	}

	counter("requests_total", "HTTP requests accepted past the limiter.", m.requests.Load())
	fmt.Fprintf(&buf, "# HELP sketchengine_responses_total HTTP responses by status class.\n# TYPE sketchengine_responses_total counter\n")
	fmt.Fprintf(&buf, "sketchengine_responses_total{class=\"2xx\"} %d\n", m.status2xx.Load())
	fmt.Fprintf(&buf, "sketchengine_responses_total{class=\"4xx\"} %d\n", m.status4xx.Load())
	fmt.Fprintf(&buf, "sketchengine_responses_total{class=\"5xx\"} %d\n", m.status5xx.Load())
	gauge("in_flight_requests", "Requests currently being served.", float64(m.inFlight.Load()))
	counter("searches_total", "Search requests served.", m.searches.Load())
	counter("deletes_total", "Records deleted over HTTP.", m.deletes.Load())
	counter("rebuckets_total", "Successful live rebucket operations.", m.rebuckets.Load())
	counter("ingest_requests_total", "Ingest requests received.", m.ingestRequests.Load())
	counter("records_added_total", "Records added by ingest.", m.recordsAdded.Load())
	counter("records_replicated_total", "Sketches accepted via the replicate endpoint.", m.replicated.Load())
	counter("ingest_batches_total", "Coalesced AddBatch calls.", m.batches.Load())
	counter("ingest_batched_records_total", "Records across coalesced batches.", m.batchedRecords.Load())
	gauge("ingest_queue_depth", "Ingest requests currently queued.", float64(s.ingest.depth()))
	gauge("ingest_queue_capacity", "Ingest queue capacity.", float64(s.cfg.QueueDepth))
	counter("snapshots_total", "Snapshots written.", m.snapshots.Load())
	counter("search_deadline_exceeded_total", "Searches aborted by an expired propagated deadline.", m.deadlineExceeded.Load())
	counter("search_canceled_total", "Searches aborted by caller disconnect.", m.searchCanceled.Load())
	writeFaultMetrics(&buf)

	gauge("records", "Live records in the index.", float64(st.Records))
	gauge("lsh_bytes", "Bytes held by the LSH posting table (slots and postings, by capacity).", float64(st.LSHBytes))
	gauge("lsh_buckets", "Distinct LSH band buckets in the posting table.", float64(st.LSHBuckets))
	gauge("dead_rows", "Tombstoned rows awaiting compaction.", float64(st.DeadRows))
	gauge("tombstone_ratio", "Dead rows as a fraction of all rows.", st.TombstoneRatio)
	counter("compactions_total", "Shard compactions run.", int64(st.Compactions))
	counter("compacted_rows_total", "Dead rows reclaimed by compaction.", int64(st.CompactedRows))

	if wal := st.WAL; wal != nil {
		gauge("wal_frames", "Frames in the WALs since the last snapshot.", float64(wal.Frames))
		gauge("wal_bytes", "Bytes in the WALs since the last snapshot.", float64(wal.Bytes))
		counter("wal_appends_total", "Frames appended to the WALs.", int64(wal.Appends))
		counter("wal_fsyncs_total", "WAL fsync batches.", int64(wal.Fsyncs))
		fmt.Fprintf(&buf, "# HELP sketchengine_wal_fsync_seconds_total Time spent in WAL fsyncs.\n# TYPE sketchengine_wal_fsync_seconds_total counter\nsketchengine_wal_fsync_seconds_total %s\n",
			strconv.FormatFloat(float64(wal.FsyncNanos)/1e9, 'g', -1, 64))
		counter("wal_replayed_frames_total", "Frames replayed at the last open.", int64(wal.ReplayedFrames))
		counter("wal_torn_bytes_total", "Torn-tail bytes truncated at the last open.", int64(wal.TornBytes))
	}

	names := m.histNames()
	if len(names) > 0 {
		fmt.Fprintf(&buf, "# HELP sketchengine_http_request_duration_seconds Request latency by endpoint.\n# TYPE sketchengine_http_request_duration_seconds histogram\n")
	}
	for _, name := range names {
		WritePromHistogram(&buf, "sketchengine_http_request_duration_seconds",
			fmt.Sprintf("endpoint=%q", name), m.latencies[name])
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// writeFaultMetrics emits injected-fault counters when a fault plan is
// armed, one labeled series per point:kind rule, and nothing otherwise
// — scrape output is unchanged in normal operation. Exported through
// WriteFaultMetrics for the cluster coordinator's /metrics.
func writeFaultMetrics(w io.Writer) {
	p := fault.Active()
	if p == nil {
		return
	}
	counts := p.Counters()
	fmt.Fprintf(w, "# HELP sketchengine_fault_injections_total Faults injected by the armed fault spec, by point and kind.\n# TYPE sketchengine_fault_injections_total counter\n")
	for _, key := range p.CounterKeys() {
		point, kind, _ := strings.Cut(key, ":")
		fmt.Fprintf(w, "sketchengine_fault_injections_total{point=%q,kind=%q} %d\n", point, kind, counts[key])
	}
	fmt.Fprintf(w, "# HELP sketchengine_fault_spec_armed Whether a fault-injection spec is armed.\n# TYPE sketchengine_fault_spec_armed gauge\nsketchengine_fault_spec_armed 1\n")
}

// WriteFaultMetrics is writeFaultMetrics for other packages' /metrics
// renderers (the cluster coordinator).
func WriteFaultMetrics(w io.Writer) { writeFaultMetrics(w) }

// WritePromHistogram renders h as one Prometheus histogram series named
// metric with the given preformatted label pair (e.g. `endpoint="x"`):
// cumulative _bucket lines over LatencyBuckets, then _sum and _count.
// The # HELP / # TYPE header is the caller's job, since it is shared
// across all series of one metric. The cluster coordinator renders its
// fan-out histograms through the same helper.
func WritePromHistogram(w io.Writer, metric, labels string, h *Histogram) {
	var cum int64
	for i, ub := range LatencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n",
			metric, labels, strconv.FormatFloat(ub, 'g', -1, 64), cum)
	}
	cum += h.counts[len(LatencyBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", metric, labels, cum)
	fmt.Fprintf(w, "%s_sum{%s} %s\n",
		metric, labels, strconv.FormatFloat(float64(h.sumNanos.Load())/1e9, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count{%s} %d\n", metric, labels, h.count.Load())
}
