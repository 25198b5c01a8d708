package cluster

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"sketchengine/internal/fault"
	"sketchengine/internal/server"
)

func (c *Coordinator) routes() http.Handler {
	mux, timed := http.NewServeMux(), c.shell.Timed
	mux.HandleFunc("POST /v1/records", timed("ingest", c.handleIngest))
	mux.HandleFunc("POST /v1/search", timed("search", c.handleSearch))
	mux.HandleFunc("GET /v1/records/{name}", timed("get_record", c.handleGetRecord))
	mux.HandleFunc("DELETE /v1/records/{name}", timed("delete_record", c.handleDeleteRecord))
	mux.HandleFunc("POST /v1/admin/repair", timed("repair", c.handleRepairSweep))
	mux.HandleFunc("POST /v1/admin/join", timed("join", c.handleJoin))
	mux.HandleFunc("POST /v1/admin/drain", timed("drain", c.handleDrain))
	mux.HandleFunc("GET /healthz", timed("healthz", c.handleHealthz))
	mux.HandleFunc("GET /stats", timed("stats", c.handleStats))
	mux.HandleFunc("GET /metrics", timed("metrics", c.handleMetrics))
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

// BackendStats is one backend's row in the coordinator's /stats, and
// through its tags one sample per backend="addr" in each per-backend
// /metrics family.
type BackendStats struct {
	Addr string `json:"addr" promlabel:"backend"`
	Up   bool   `json:"up" prom:"backend_up" help:"Backend health as its circuit breaker sees it (1 up, 0 down)."`
	// Breaker is the circuit-breaker state gating first-wave traffic to
	// this backend: "closed" (healthy), "open" (shed), or "half-open"
	// (recovery probation). The transition counters record how often the
	// breaker tripped, entered probation, and recovered.
	Breaker          string  `json:"breaker"`
	BreakerOpens     int64   `json:"breaker_opens,omitempty" prom:"backend_breaker_transitions_total,kind=open" help:"Breaker transitions per backend by kind."`
	BreakerHalfOpens int64   `json:"breaker_half_opens,omitempty" prom:"backend_breaker_transitions_total,kind=half_open"`
	BreakerCloses    int64   `json:"breaker_closes,omitempty" prom:"backend_breaker_transitions_total,kind=close"`
	Requests         int64   `json:"requests" prom:"backend_requests_total" help:"Requests proxied to each backend."`
	Failures         int64   `json:"failures" prom:"backend_failures_total" help:"Proxied requests that failed, per backend."`
	RoutedRecords    int64   `json:"routed_records" prom:"ring_records,counter" help:"Record-replica assignments per backend: the observed ring occupancy."`
	Transitions      int64   `json:"transitions"`
	DownSeconds      float64 `json:"down_seconds,omitempty"`
	// PendingHints is how many quorum-acked writes this backend still
	// has to catch up on; ProbeIntervalSeconds is its breaker's current
	// (backed-off) reprobe cadence, absent until it has been down once.
	PendingHints         int     `json:"pending_hints" prom:"backend_pending_hints" help:"Hints queued per backend."`
	ProbeIntervalSeconds float64 `json:"probe_interval_seconds,omitempty"`
	LastError            string  `json:"last_error,omitempty"`
}

// HintStats summarizes the hinted-handoff store in /stats.
type HintStats struct {
	Pending  int   `json:"pending" prom:"hint_depth" help:"Hints pending across all backends."`
	Queued   int64 `json:"queued" prom:"hints_queued_total" help:"Hints enqueued for replicas that missed an acked write."`
	Replayed int64 `json:"replayed" prom:"hints_replayed_total" help:"Hints successfully replayed to their backend."`
	Expired  int64 `json:"expired" prom:"hints_expired_total" help:"Hints dropped past their TTL."`
	Dropped  int64 `json:"dropped" prom:"hints_dropped_total" help:"Hints discarded because the backend left the ring."`
}

// RepairStats summarizes anti-entropy activity in /stats.
type RepairStats struct {
	QueueDepth int   `json:"queue_depth" prom:"repair_queue_depth" help:"Record names waiting for the read-repair worker."`
	Enqueued   int64 `json:"enqueued" prom:"repair_enqueued_total" help:"Records enqueued for read repair."`
	Dropped    int64 `json:"dropped" prom:"repair_dropped_total" help:"Read-repair enqueues dropped on a full queue."`
	Checked    int64 `json:"checked" prom:"repair_checked_total" help:"Repair probes completed."`
	Applied    int64 `json:"applied" prom:"repair_applied_total" help:"Record copies written by repair."`
	Removed    int64 `json:"removed_strays" prom:"repair_removed_strays_total" help:"Stray copies deleted by the sweep."`
	Failures   int64 `json:"failures" prom:"repair_failures_total" help:"Repairs that could not converge."`
	Sweeps     int64 `json:"sweeps" prom:"repair_sweeps_total" help:"Full anti-entropy sweeps completed."`
}

// RebalanceStats summarizes ring membership changes in /stats.
type RebalanceStats struct {
	Active   bool  `json:"active" prom:"rebalance_active" help:"1 while a join/drain stream is in flight."`
	Joins    int64 `json:"joins" prom:"rebalance_joins_total" help:"Committed ring joins."`
	Drains   int64 `json:"drains" prom:"rebalance_drains_total" help:"Committed ring drains."`
	Failures int64 `json:"failures" prom:"rebalance_failures_total" help:"Join/drain attempts aborted before commit."`
	Moved    int64 `json:"records_moved" prom:"rebalance_moved_total" help:"Records whose replica set changed across commits."`
	Copied   int64 `json:"copies_streamed" prom:"rebalance_copied_total" help:"Record copies streamed to new replicas."`
}

// RetryBudgetStats reports the coordinator-wide retry token bucket.
type RetryBudgetStats struct {
	Remaining    float64 `json:"remaining" prom:"retry_budget_tokens" help:"Retry tokens currently available."`
	Max          int     `json:"max"`
	RefillPerSec float64 `json:"refill_per_sec"`
	Spent        int64   `json:"spent" prom:"retry_budget_spent_total" help:"Retry tokens spent on second waves, hint replays, and repair copies."`
	Denied       int64   `json:"denied" prom:"retry_budget_denied_total" help:"Retries denied on an empty budget."`
}

// StatsResponse is the coordinator's GET /stats body, and through its
// prom tags the one definition of its /metrics.
type StatsResponse struct {
	UptimeSeconds float64  `json:"uptime_seconds"`
	Replication   int      `json:"replication"`
	WriteQuorum   int      `json:"write_quorum"`
	Ring          []string `json:"ring"`
	// Requests is HTTP.Total, kept under its old key; HTTP is the shared
	// counting middleware's block — status classes, in-flight and peak —
	// the same one a backend reports under "requests".
	Requests       int64            `json:"requests"`
	HTTP           server.HTTPStats `json:"http"`
	Searches       int64            `json:"searches" prom:"searches_total" help:"Search fan-outs served."`
	IngestRequests int64            `json:"ingest_requests" prom:"ingest_requests_total" help:"Ingest requests received."`
	RecordsRouted  int64            `json:"records_routed" prom:"records_routed_total" help:"Record-replica assignments routed by ingest."`
	Deletes        int64            `json:"deletes" prom:"deletes_total" help:"Deletes routed to replica sets."`
	Retries        int64            `json:"retries" prom:"retries_total" help:"Backend calls retried after a failed first wave."`
	PartialResults int64            `json:"partial_results" prom:"partial_results_total" help:"Search responses degraded to partial."`
	QuorumFailures int64            `json:"quorum_failures" prom:"quorum_failures_total" help:"Records that missed their write quorum."`
	// SearchBackendCalls counts the backend calls searches made, first
	// wave and second: divided by Searches it is the fan-out width, which
	// sits at the cover size (backends - write_quorum + 1) while the fleet
	// is healthy.
	SearchBackendCalls int64 `json:"search_backend_calls" prom:"search_backend_calls_total" help:"Backend calls made by searches, first wave and second."`
	// Shed is always 0: it stays only because bench/ compiles against it.
	Shed int64 `json:"shed,omitempty"`
	// DeadlineExceeded counts backend calls that came back 504 after the
	// propagated deadline expired.
	DeadlineExceeded int64            `json:"deadline_exceeded,omitempty" prom:"deadline_exceeded_total" help:"Backend calls that answered 504 past the propagated deadline."`
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

// stats is the one snapshot both /stats and /metrics are rendered from.
func (c *Coordinator) stats() StatsResponse {
	m := c.metrics
	ring, _ := c.rings()
	var faults map[string]int64
	if p := fault.Active(); p != nil {
		faults = p.Counters()
	}
	hs := c.shell.HTTPStats()
	return StatsResponse{
		UptimeSeconds:      c.shell.UptimeSeconds(),
		Replication:        c.cfg.Replication,
		WriteQuorum:        c.quorum(),
		Ring:               ring.Backends(),
		Requests:           hs.Total,
		HTTP:               hs,
		Searches:           m.searches.Load(),
		SearchBackendCalls: m.searchBackendCalls.Load(),
		IngestRequests:     m.ingestRequests.Load(),
		RecordsRouted:      m.recordsRouted.Load(),
		Deletes:            m.deletes.Load(),
		Retries:            m.retries.Load(),
		PartialResults:     m.partials.Load(),
		QuorumFailures:     m.quorumFailures.Load(),
		DeadlineExceeded:   m.deadlineExceeded.Load(),
		RetryBudget: RetryBudgetStats{
			Remaining:    c.budget.remaining(),
			Max:          c.cfg.RetryBudget,
			RefillPerSec: c.cfg.RetryRefillPerSec,
			Spent:        c.budget.spent.Load(),
			Denied:       c.budget.denied.Load(),
		},
		Faults: faults,
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
	}
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.stats())
}

// handleMetrics renders stats() under sketchengine_cluster_. The breaker
// state is the one family that is not a tagged field: a string rendered
// one-hot, one series per backend and state, 1 on the active one.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := c.stats()
	breakerStates := func(w io.Writer) {
		fmt.Fprintf(w, "# HELP sketchengine_cluster_backend_breaker_state Per-backend breaker state (1 on the active state's series).\n# TYPE sketchengine_cluster_backend_breaker_state gauge\n")
		for _, b := range st.Backends {
			for _, state := range []string{"closed", "open", "half-open"} {
				v := 0
				if state == b.Breaker {
					v = 1
				}
				fmt.Fprintf(w, "sketchengine_cluster_backend_breaker_state{backend=%q,state=%q} %d\n", b.Addr, state, v)
			}
		}
	}
	server.WriteProm(w, "sketchengine_cluster_", st, breakerStates,
		c.shell.Latencies("sketchengine_cluster_fanout_duration_seconds", "Whole-fan-out latency by endpoint."))
}
