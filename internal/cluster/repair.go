package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"sketchengine/internal/server"
)

// Anti-entropy read repair: any read that reveals replica disagreement
// — a GET that 404s on one replica and hits on another, a search hit a
// responding replica should have returned but didn't — enqueues the
// record name for repair. The repair worker re-probes the replica set
// authoritatively (with signatures) and copies the record from a
// holder to each replica that lacks it. POST /v1/admin/repair is the
// full-corpus version of the same convergence: it enumerates every
// backend, diffs the observed placement against the ring, and repairs
// each divergent record.
//
// Repair is add-wins: a record present anywhere in its replica set is
// copied to the rest. The sole casualty is a delete whose tombstone
// hint expired before a down replica returned — repair can resurrect
// the record from that replica. Accepting that (instead of shipping
// per-record version vectors) matches the engine's add-mostly design;
// the delete can simply be re-issued.

// repairQueueDepth bounds the read-repair queue; reads observing
// disagreement beyond it drop their enqueue (with a counter) rather
// than block — the sweep catches anything dropped.
const repairQueueDepth = 1024

// repairQueue is the bounded, deduplicating queue between read paths
// and the repair worker.
type repairQueue struct {
	ch chan string

	mu      sync.Mutex
	pending map[string]struct{}

	enqueued atomic.Int64 // names accepted for repair
	dropped  atomic.Int64 // enqueues dropped on a full queue
	checked  atomic.Int64 // repair probes completed
	applied  atomic.Int64 // record copies written by repair
	removed  atomic.Int64 // stray copies deleted by the sweep
	failed   atomic.Int64 // repairs that could not converge
	sweeps   atomic.Int64 // full sweeps completed
}

func newRepairQueue() *repairQueue {
	return &repairQueue{
		ch:      make(chan string, repairQueueDepth),
		pending: make(map[string]struct{}, repairQueueDepth),
	}
}

// offer enqueues name for repair unless it is already queued or the
// queue is full.
func (q *repairQueue) offer(name string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, dup := q.pending[name]; dup {
		return
	}
	select {
	case q.ch <- name:
		q.pending[name] = struct{}{}
		q.enqueued.Add(1)
	default:
		q.dropped.Add(1)
	}
}

// depth is the number of names waiting for the repair worker.
func (q *repairQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

func (q *repairQueue) taken(name string) {
	q.mu.Lock()
	delete(q.pending, name)
	q.mu.Unlock()
}

// repairLoop is the background worker: one repair at a time, each
// bounded by per-call fan-out timeouts.
func (c *Coordinator) repairLoop() {
	for {
		select {
		case <-c.stop:
			return
		case name := <-c.repairs.ch:
			c.repairs.taken(name)
			if _, err := c.repairRecord(context.Background(), name); err != nil {
				c.logf("read repair %q: %v", name, err)
			}
		}
	}
}

// repairRecord converges one record's replica set: probe every replica
// for the record (with its stored signature), then copy it from any
// holder to each replica that definitively lacks it. Replicas that
// cannot answer are left alone — absence must be proven, not assumed.
// It returns the number of copies written.
func (c *Coordinator) repairRecord(ctx context.Context, name string) (int, error) {
	ring, _ := c.rings()
	var src *server.RecordResponse
	var missing []*backend
	for _, addr := range ring.Replicas(name) {
		b := c.lookup(addr)
		if b == nil {
			continue
		}
		cctx, cancel := context.WithTimeout(ctx, c.cfg.FanoutTimeout)
		var rec server.RecordResponse
		err := c.client.do(cctx, b, "GET", "/v1/records/"+url.PathEscape(name)+"?signature=1", nil, &rec)
		cancel()
		switch {
		case err == nil && len(rec.Signature) > 0:
			if src == nil {
				src = &rec
			}
		case isNotFound(err):
			missing = append(missing, b)
		}
	}
	c.repairs.checked.Add(1)
	if src == nil || len(missing) == 0 {
		return 0, nil
	}
	req := server.ReplicateRequest{Records: []server.ReplicaRecord{{
		Name:      name,
		Shingles:  src.Shingles,
		Signature: src.Signature,
	}}}
	copied := 0
	var firstErr error
	for _, b := range missing {
		if !c.budget.allow(1) {
			// Repair copies are corrective retries of past writes; a dry
			// budget defers the rest to the next pass or the sweep.
			c.repairs.failed.Add(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("repair %q: retry budget exhausted with %d cop(ies) pending", name, len(missing)-copied)
			}
			break
		}
		cctx, cancel := context.WithTimeout(ctx, c.cfg.FanoutTimeout)
		err := c.client.do(cctx, b, "POST", "/v1/admin/replicate", &req, nil)
		cancel()
		if err != nil {
			c.repairs.failed.Add(1)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		copied++
	}
	c.repairs.applied.Add(int64(copied))
	if copied > 0 {
		c.logf("read repair %q: copied to %d lagging replica(s)", name, copied)
	}
	return copied, firstErr
}

func isNotFound(err error) bool {
	var berr *BackendError
	return errors.As(err, &berr) && berr.Status == http.StatusNotFound
}

// RepairSweepResponse is the body of POST /v1/admin/repair.
type RepairSweepResponse struct {
	// Backends is how many backends were enumerated; Skipped lists the
	// ones that could not be (down or mid-restart) — their exclusive
	// records, if any, were not visible to this sweep.
	Backends int      `json:"backends"`
	Skipped  []string `json:"skipped,omitempty"`
	// Records is the distinct record names observed across the fleet.
	Records int `json:"records"`
	// Repaired counts copies written to under-replicated replica sets;
	// RemovedStrays counts copies deleted from backends outside a
	// record's replica set (only once the set itself was complete).
	Repaired      int `json:"repaired"`
	RemovedStrays int `json:"removed_strays"`
	Failures      int `json:"failures"`
}

// handleRepairSweep runs one full anti-entropy sweep.
func (c *Coordinator) handleRepairSweep(w http.ResponseWriter, r *http.Request) {
	resp, err := c.runRepairSweep(r.Context())
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, CodeBackendDown, err.Error())
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// sweepLoop runs periodic sweeps when RepairInterval is set.
func (c *Coordinator) sweepLoop(ctx context.Context) {
	t := time.NewTicker(c.cfg.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.stop:
			return
		case <-t.C:
			if resp, err := c.runRepairSweep(ctx); err != nil {
				c.logf("periodic repair sweep: %v", err)
			} else if resp.Repaired+resp.RemovedStrays > 0 {
				c.logf("periodic repair sweep: %d repaired, %d strays removed over %d records",
					resp.Repaired, resp.RemovedStrays, resp.Records)
			}
		}
	}
}

// runRepairSweep walks the ring per record and converges every replica
// set: enumerate each reachable backend (names only — signatures are
// refetched per divergent record, so the sweep's memory is one bit set
// per record, not the corpus), diff observed placement against the
// ring, repair under-replication, and then remove stray copies that a
// past membership change left outside the replica set. Strays are
// removed only after their record's replica set is verifiably
// complete, so the sweep never destroys the last copy of anything.
func (c *Coordinator) runRepairSweep(ctx context.Context) (RepairSweepResponse, error) {
	ring, _ := c.rings()
	backends := c.backendList()
	if len(backends) > 64 {
		return RepairSweepResponse{}, fmt.Errorf("repair sweep supports up to 64 backends, fleet has %d", len(backends))
	}
	bitOf := make(map[string]uint, len(backends))
	for i, b := range backends {
		bitOf[b.addr] = uint(i)
	}

	resp := RepairSweepResponse{Backends: len(backends)}
	present := make(map[string]uint64)
	for _, b := range backends {
		if err := c.enumerateBackend(ctx, b, func(rec server.ReplicaRecord) {
			present[rec.Name] |= 1 << bitOf[b.addr]
		}); err != nil {
			resp.Skipped = append(resp.Skipped, b.addr)
			c.logf("repair sweep: skipping %s: %v", b.addr, err)
		}
	}
	if len(resp.Skipped) == len(backends) {
		return resp, fmt.Errorf("repair sweep: no backend could be enumerated")
	}
	resp.Records = len(present)

	for name, mask := range present {
		if ctx.Err() != nil {
			return resp, ctx.Err()
		}
		var want uint64
		for _, addr := range ring.Replicas(name) {
			if bit, ok := bitOf[addr]; ok {
				want |= 1 << bit
			}
		}
		missing := want &^ mask
		strays := mask &^ want
		if missing != 0 {
			copied, err := c.repairRecord(ctx, name)
			resp.Repaired += copied
			if err != nil || copied < bits.OnesCount64(missing) {
				resp.Failures++
				continue // replica set not proven complete; keep the strays
			}
		}
		for _, b := range backends {
			if strays&(1<<bitOf[b.addr]) == 0 {
				continue
			}
			cctx, cancel := context.WithTimeout(ctx, c.cfg.FanoutTimeout)
			err := c.client.do(cctx, b, "DELETE", "/v1/records/"+url.PathEscape(name), nil, nil)
			cancel()
			if err != nil && !isNotFound(err) {
				resp.Failures++
				continue
			}
			resp.RemovedStrays++
			c.repairs.removed.Add(1)
		}
	}
	c.repairs.sweeps.Add(1)
	return resp, nil
}

// enumerateBackend pages through b's corpus, calling visit for every
// record. A page fetch gets one retry; a stale cursor (concurrent
// delete) restarts the walk once, since the sweep is idempotent
// anyway, and a second one is returned: re-asking cannot succeed.
func (c *Coordinator) enumerateBackend(ctx context.Context, b *backend, visit func(server.ReplicaRecord)) error {
	restarted := false
	cursor := ""
	for {
		var page server.RecordListResponse
		path := "/v1/records?limit=256"
		if cursor != "" {
			path += "&cursor=" + url.QueryEscape(cursor)
		}
		cctx, cancel := context.WithTimeout(ctx, c.cfg.FanoutTimeout)
		err := c.client.do(cctx, b, "GET", path, nil, &page)
		cancel()
		if err != nil {
			var berr *BackendError
			if errors.As(err, &berr) && berr.Code == server.CodeCursorGone {
				if restarted {
					return err
				}
				restarted = true
				cursor = ""
				continue
			}
			// One retry: a single dropped connection should not fail a
			// whole enumeration — but it spends a retry token like every
			// other second attempt.
			if !c.budget.allow(1) {
				return fmt.Errorf("enumerate %s: %w (retry budget exhausted)", b.addr, err)
			}
			cctx, cancel := context.WithTimeout(ctx, c.cfg.FanoutTimeout)
			err = c.client.do(cctx, b, "GET", path, nil, &page)
			cancel()
			if err != nil {
				return err
			}
		}
		for _, rec := range page.Records {
			visit(rec)
		}
		if page.NextCursor == "" {
			return nil
		}
		cursor = page.NextCursor
	}
}
