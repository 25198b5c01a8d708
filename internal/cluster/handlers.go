package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"sketchengine/internal/fault"
	"sketchengine/internal/server"
)

// faultCounters snapshots the armed fault plan's injection counters,
// keyed "point:kind", or nil when no spec is armed.
func faultCounters() map[string]int64 {
	p := fault.Active()
	if p == nil {
		return nil
	}
	return p.Counters()
}

func (c *Coordinator) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/records", c.timed("ingest", c.handleIngest))
	mux.HandleFunc("POST /v1/search", c.timed("search", c.handleSearch))
	mux.HandleFunc("GET /v1/records/{name}", c.timed("get_record", c.handleGetRecord))
	mux.HandleFunc("DELETE /v1/records/{name}", c.timed("delete_record", c.handleDeleteRecord))
	mux.HandleFunc("POST /v1/admin/rebucket", c.timed("rebucket", c.handleRebucket))
	mux.HandleFunc("POST /v1/admin/repair", c.timed("repair", c.handleRepairSweep))
	mux.HandleFunc("POST /v1/admin/join", c.timed("join", c.handleJoin))
	mux.HandleFunc("POST /v1/admin/drain", c.timed("drain", c.handleDrain))
	mux.HandleFunc("GET /healthz", c.timed("healthz", c.handleHealthz))
	mux.HandleFunc("GET /stats", c.timed("stats", c.handleStats))
	mux.HandleFunc("GET /metrics", c.timed("metrics", c.handleMetrics))
	return mux
}

// HealthResponse is the coordinator's GET /healthz body. Status is
// "ok" while every backend is up and "degraded" otherwise; the
// coordinator itself answering is what makes either healthy.
type HealthResponse struct {
	Status      string `json:"status"`
	Backends    int    `json:"backends"`
	BackendsUp  int    `json:"backends_up"`
	Replication int    `json:"replication"`
}

// BackendStats is one backend's row in the coordinator's /stats.
type BackendStats struct {
	Addr string `json:"addr"`
	Up   bool   `json:"up"`
	// Breaker is the circuit-breaker state gating first-wave traffic to
	// this backend: "closed" (healthy), "open" (shed), or "half-open"
	// (recovery probation). The transition counters record how often the
	// breaker tripped, entered probation, and recovered.
	Breaker          string  `json:"breaker"`
	BreakerOpens     int64   `json:"breaker_opens,omitempty"`
	BreakerHalfOpens int64   `json:"breaker_half_opens,omitempty"`
	BreakerCloses    int64   `json:"breaker_closes,omitempty"`
	Requests         int64   `json:"requests"`
	Failures         int64   `json:"failures"`
	RoutedRecords    int64   `json:"routed_records"`
	Transitions      int64   `json:"transitions"`
	DownSeconds      float64 `json:"down_seconds,omitempty"`
	// PendingHints is how many quorum-acked writes this backend still
	// has to catch up on; ProbeIntervalSeconds is its breaker's current
	// (backed-off) reprobe cadence, absent until it has been down once.
	PendingHints         int     `json:"pending_hints"`
	ProbeIntervalSeconds float64 `json:"probe_interval_seconds,omitempty"`
	LastError            string  `json:"last_error,omitempty"`
}

// HintStats summarizes the hinted-handoff store in /stats.
type HintStats struct {
	Pending  int   `json:"pending"`
	Queued   int64 `json:"queued"`
	Replayed int64 `json:"replayed"`
	Expired  int64 `json:"expired"`
	Dropped  int64 `json:"dropped"`
}

// RepairStats summarizes anti-entropy activity in /stats.
type RepairStats struct {
	QueueDepth int   `json:"queue_depth"`
	Enqueued   int64 `json:"enqueued"`
	Dropped    int64 `json:"dropped"`
	Checked    int64 `json:"checked"`
	Applied    int64 `json:"applied"`
	Removed    int64 `json:"removed_strays"`
	Failures   int64 `json:"failures"`
	Sweeps     int64 `json:"sweeps"`
}

// RebalanceStats summarizes ring membership changes in /stats.
type RebalanceStats struct {
	Active   bool  `json:"active"`
	Joins    int64 `json:"joins"`
	Drains   int64 `json:"drains"`
	Failures int64 `json:"failures"`
	Moved    int64 `json:"records_moved"`
	Copied   int64 `json:"copies_streamed"`
}

// RetryBudgetStats reports the coordinator-wide retry token bucket.
type RetryBudgetStats struct {
	Remaining    float64 `json:"remaining"`
	Max          int     `json:"max"`
	RefillPerSec float64 `json:"refill_per_sec"`
	Spent        int64   `json:"spent"`
	Denied       int64   `json:"denied"`
}

// StatsResponse is the coordinator's GET /stats body.
type StatsResponse struct {
	UptimeSeconds  float64  `json:"uptime_seconds"`
	Replication    int      `json:"replication"`
	WriteQuorum    int      `json:"write_quorum"`
	Ring           []string `json:"ring"`
	Requests       int64    `json:"requests"`
	Searches       int64    `json:"searches"`
	IngestRequests int64    `json:"ingest_requests"`
	RecordsRouted  int64    `json:"records_routed"`
	Deletes        int64    `json:"deletes"`
	Retries        int64    `json:"retries"`
	PartialResults int64    `json:"partial_results"`
	QuorumFailures int64    `json:"quorum_failures"`
	// SearchBackendCalls counts the backend calls searches made, first
	// wave and second: divided by Searches it is the fan-out width, which
	// sits at the cover size (backends - write_quorum + 1) while the fleet
	// is healthy.
	SearchBackendCalls int64 `json:"search_backend_calls"`
	// Shed counts fan-outs refused with 503 at the MaxFanout bound;
	// DeadlineExceeded counts backend calls that came back 504 after the
	// propagated deadline expired.
	Shed             int64            `json:"shed,omitempty"`
	DeadlineExceeded int64            `json:"deadline_exceeded,omitempty"`
	RetryBudget      RetryBudgetStats `json:"retry_budget"`
	// Faults is populated only while a fault spec is armed: injection
	// counts keyed "point:kind".
	Faults    map[string]int64 `json:"faults,omitempty"`
	Hints     HintStats        `json:"hints"`
	Repair    RepairStats      `json:"repair"`
	Rebalance RebalanceStats   `json:"rebalance"`
	Backends  []BackendStats   `json:"backends"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	backends := c.backendList()
	up := 0
	for _, b := range backends {
		if b.up() {
			up++
		}
	}
	status := "ok"
	if up < len(backends) {
		status = "degraded"
	}
	server.WriteJSON(w, http.StatusOK, HealthResponse{
		Status:      status,
		Backends:    len(backends),
		BackendsUp:  up,
		Replication: c.cfg.Replication,
	})
}

func (c *Coordinator) backendStats() []BackendStats {
	backends := c.backendList()
	out := make([]BackendStats, 0, len(backends))
	for _, b := range backends {
		bs := BackendStats{
			Addr:             b.addr,
			Up:               b.up(),
			Breaker:          breakerStateName(b.bState.Load()),
			BreakerOpens:     b.opens.Load(),
			BreakerHalfOpens: b.halfOpens.Load(),
			BreakerCloses:    b.closes.Load(),
			Requests:         b.requests.Load(),
			Failures:         b.failures.Load(),
			RoutedRecords:    b.routedRecords.Load(),
			Transitions:      b.transitions(),
			PendingHints:     c.hints.depthFor(b.addr),
		}
		if since := b.downSince.Load(); since != 0 {
			bs.DownSeconds = time.Since(time.Unix(0, since)).Seconds()
		}
		if iv := b.probeInterval.Load(); iv != 0 {
			bs.ProbeIntervalSeconds = time.Duration(iv).Seconds()
		}
		if msg := b.lastErr.Load(); msg != nil {
			bs.LastError = *msg
		}
		out = append(out, bs)
	}
	return out
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	m := c.metrics
	ring, _ := c.rings()
	server.WriteJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds:      time.Since(m.start).Seconds(),
		Replication:        c.cfg.Replication,
		WriteQuorum:        c.quorum(),
		Ring:               ring.Backends(),
		Requests:           m.requests.Load(),
		Searches:           m.searches.Load(),
		SearchBackendCalls: m.searchBackendCalls.Load(),
		IngestRequests:     m.ingestRequests.Load(),
		RecordsRouted:      m.recordsRouted.Load(),
		Deletes:            m.deletes.Load(),
		Retries:            m.retries.Load(),
		PartialResults:     m.partials.Load(),
		QuorumFailures:     m.quorumFailures.Load(),
		Shed:               m.shed.Load(),
		DeadlineExceeded:   m.deadlineExceeded.Load(),
		RetryBudget: RetryBudgetStats{
			Remaining:    c.budget.remaining(),
			Max:          c.cfg.RetryBudget,
			RefillPerSec: c.cfg.RetryRefillPerSec,
			Spent:        c.budget.spent.Load(),
			Denied:       c.budget.denied.Load(),
		},
		Faults: faultCounters(),
		Hints: HintStats{
			Pending:  c.hints.depth(),
			Queued:   c.hints.queued.Load(),
			Replayed: c.hints.replayed.Load(),
			Expired:  c.hints.expired.Load(),
			Dropped:  c.hints.dropped.Load(),
		},
		Repair: RepairStats{
			QueueDepth: c.repairs.depth(),
			Enqueued:   c.repairs.enqueued.Load(),
			Dropped:    c.repairs.dropped.Load(),
			Checked:    c.repairs.checked.Load(),
			Applied:    c.repairs.applied.Load(),
			Removed:    c.repairs.removed.Load(),
			Failures:   c.repairs.failed.Load(),
			Sweeps:     c.repairs.sweeps.Load(),
		},
		Rebalance: RebalanceStats{
			Active:   m.rebalanceActive.Load(),
			Joins:    m.joins.Load(),
			Drains:   m.drains.Load(),
			Failures: m.rebalanceFailures.Load(),
			Moved:    m.rebalanceMoved.Load(),
			Copied:   m.rebalanceCopied.Load(),
		},
		Backends: c.backendStats(),
	})
}

// handleMetrics renders the coordinator's counters in the Prometheus
// text format, namespaced under sketchengine_cluster_. Per-backend
// series carry a backend label; the routed-records gauge doubles as
// the observed ring occupancy.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := c.metrics
	backends := c.backendList()
	var buf bytes.Buffer

	counter := func(name, help string, v int64) {
		fmt.Fprintf(&buf, "# HELP sketchengine_cluster_%s %s\n# TYPE sketchengine_cluster_%s counter\nsketchengine_cluster_%s %d\n",
			name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&buf, "# HELP sketchengine_cluster_%s %s\n# TYPE sketchengine_cluster_%s gauge\nsketchengine_cluster_%s %d\n",
			name, help, name, name, v)
	}
	counter("requests_total", "Requests accepted by the coordinator.", m.requests.Load())
	counter("searches_total", "Search fan-outs served.", m.searches.Load())
	counter("search_backend_calls_total", "Backend calls made by searches, first wave and second.", m.searchBackendCalls.Load())
	counter("ingest_requests_total", "Ingest requests received.", m.ingestRequests.Load())
	counter("records_routed_total", "Record-replica assignments routed by ingest.", m.recordsRouted.Load())
	counter("deletes_total", "Deletes routed to replica sets.", m.deletes.Load())
	counter("retries_total", "Backend calls retried after a failed first wave.", m.retries.Load())
	counter("partial_results_total", "Search responses degraded to partial.", m.partials.Load())
	counter("quorum_failures_total", "Records that missed their write quorum.", m.quorumFailures.Load())
	counter("shed_total", "Fan-outs refused with 503 at the MaxFanout bound.", m.shed.Load())
	counter("deadline_exceeded_total", "Backend calls that answered 504 past the propagated deadline.", m.deadlineExceeded.Load())
	fmt.Fprintf(&buf, "# HELP sketchengine_cluster_retry_budget_tokens Retry tokens currently available.\n# TYPE sketchengine_cluster_retry_budget_tokens gauge\nsketchengine_cluster_retry_budget_tokens %.3f\n",
		c.budget.remaining())
	counter("retry_budget_spent_total", "Retry tokens spent on second waves, hint replays, and repair copies.", c.budget.spent.Load())
	counter("retry_budget_denied_total", "Retries denied on an empty budget.", c.budget.denied.Load())

	gauge("hint_depth", "Hints pending across all backends.", int64(c.hints.depth()))
	counter("hints_queued_total", "Hints enqueued for replicas that missed an acked write.", c.hints.queued.Load())
	counter("hints_replayed_total", "Hints successfully replayed to their backend.", c.hints.replayed.Load())
	counter("hints_expired_total", "Hints dropped past their TTL.", c.hints.expired.Load())
	counter("hints_dropped_total", "Hints discarded because the backend left the ring.", c.hints.dropped.Load())

	gauge("repair_queue_depth", "Record names waiting for the read-repair worker.", int64(c.repairs.depth()))
	counter("repair_enqueued_total", "Records enqueued for read repair.", c.repairs.enqueued.Load())
	counter("repair_dropped_total", "Read-repair enqueues dropped on a full queue.", c.repairs.dropped.Load())
	counter("repair_checked_total", "Repair probes completed.", c.repairs.checked.Load())
	counter("repair_applied_total", "Record copies written by repair.", c.repairs.applied.Load())
	counter("repair_removed_strays_total", "Stray copies deleted by the sweep.", c.repairs.removed.Load())
	counter("repair_failures_total", "Repairs that could not converge.", c.repairs.failed.Load())
	counter("repair_sweeps_total", "Full anti-entropy sweeps completed.", c.repairs.sweeps.Load())

	active := int64(0)
	if m.rebalanceActive.Load() {
		active = 1
	}
	gauge("rebalance_active", "1 while a join/drain stream is in flight.", active)
	counter("rebalance_joins_total", "Committed ring joins.", m.joins.Load())
	counter("rebalance_drains_total", "Committed ring drains.", m.drains.Load())
	counter("rebalance_failures_total", "Join/drain attempts aborted before commit.", m.rebalanceFailures.Load())
	counter("rebalance_moved_total", "Records whose replica set changed across commits.", m.rebalanceMoved.Load())
	counter("rebalance_copied_total", "Record copies streamed to new replicas.", m.rebalanceCopied.Load())

	fmt.Fprintf(&buf, "# HELP sketchengine_cluster_backend_up Backend health as seen by the checker (1 up, 0 down).\n# TYPE sketchengine_cluster_backend_up gauge\n")
	for _, b := range backends {
		up := 0
		if b.up() {
			up = 1
		}
		fmt.Fprintf(&buf, "sketchengine_cluster_backend_up{backend=%q} %d\n", b.addr, up)
	}
	fmt.Fprintf(&buf, "# HELP sketchengine_cluster_backend_breaker_state Per-backend breaker state (1 on the active state's series).\n# TYPE sketchengine_cluster_backend_breaker_state gauge\n")
	for _, b := range backends {
		cur := breakerStateName(b.bState.Load())
		for _, state := range []string{"closed", "open", "half-open"} {
			v := 0
			if state == cur {
				v = 1
			}
			fmt.Fprintf(&buf, "sketchengine_cluster_backend_breaker_state{backend=%q,state=%q} %d\n", b.addr, state, v)
		}
	}
	fmt.Fprintf(&buf, "# HELP sketchengine_cluster_backend_breaker_transitions_total Breaker transitions per backend by kind.\n# TYPE sketchengine_cluster_backend_breaker_transitions_total counter\n")
	for _, b := range backends {
		fmt.Fprintf(&buf, "sketchengine_cluster_backend_breaker_transitions_total{backend=%q,kind=\"open\"} %d\n", b.addr, b.opens.Load())
		fmt.Fprintf(&buf, "sketchengine_cluster_backend_breaker_transitions_total{backend=%q,kind=\"half_open\"} %d\n", b.addr, b.halfOpens.Load())
		fmt.Fprintf(&buf, "sketchengine_cluster_backend_breaker_transitions_total{backend=%q,kind=\"close\"} %d\n", b.addr, b.closes.Load())
	}
	fmt.Fprintf(&buf, "# HELP sketchengine_cluster_backend_requests_total Requests proxied to each backend.\n# TYPE sketchengine_cluster_backend_requests_total counter\n")
	for _, b := range backends {
		fmt.Fprintf(&buf, "sketchengine_cluster_backend_requests_total{backend=%q} %d\n", b.addr, b.requests.Load())
	}
	fmt.Fprintf(&buf, "# HELP sketchengine_cluster_backend_failures_total Proxied requests that failed, per backend.\n# TYPE sketchengine_cluster_backend_failures_total counter\n")
	for _, b := range backends {
		fmt.Fprintf(&buf, "sketchengine_cluster_backend_failures_total{backend=%q} %d\n", b.addr, b.failures.Load())
	}
	fmt.Fprintf(&buf, "# HELP sketchengine_cluster_backend_pending_hints Hints queued per backend.\n# TYPE sketchengine_cluster_backend_pending_hints gauge\n")
	for _, b := range backends {
		fmt.Fprintf(&buf, "sketchengine_cluster_backend_pending_hints{backend=%q} %d\n", b.addr, c.hints.depthFor(b.addr))
	}
	fmt.Fprintf(&buf, "# HELP sketchengine_cluster_ring_records Record-replica assignments per backend: the observed ring occupancy.\n# TYPE sketchengine_cluster_ring_records counter\n")
	for _, b := range backends {
		fmt.Fprintf(&buf, "sketchengine_cluster_ring_records{backend=%q} %d\n", b.addr, b.routedRecords.Load())
	}

	names := make([]string, 0, len(m.latencies))
	m.histMu.Lock()
	for name := range m.latencies {
		names = append(names, name)
	}
	m.histMu.Unlock()
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(&buf, "# HELP sketchengine_cluster_fanout_duration_seconds Whole-fan-out latency by endpoint.\n# TYPE sketchengine_cluster_fanout_duration_seconds histogram\n")
	}
	for _, name := range names {
		server.WritePromHistogram(&buf, "sketchengine_cluster_fanout_duration_seconds",
			fmt.Sprintf("endpoint=%q", name), m.hist(name))
	}
	server.WriteFaultMetrics(&buf)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}
