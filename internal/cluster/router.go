package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"sketchengine/internal/server"
)

// Error codes the coordinator adds to the envelope vocabulary.
const (
	// CodeBackendDown: no backend could serve the request at all.
	CodeBackendDown = "backend_down"
	// CodeQuorumFailed: a write reached fewer than quorum replicas for
	// at least one record; the envelope's Records list names them.
	CodeQuorumFailed = "quorum_failed"
)

// placementFor returns name's write set: the authoritative (old-ring)
// replicas, plus — while a join/drain streams — the extra replicas the
// target ring adds, so a mid-migration write can never miss its new
// home. Quorum is counted on the authoritative set only.
func (c *Coordinator) placementFor(ring, next *Ring, name string) (primary, extras []string) {
	primary = ring.Replicas(name)
	if next == nil {
		return primary, nil
	}
	for _, addr := range next.Replicas(name) {
		if !slices.Contains(primary, addr) {
			extras = append(extras, addr)
		}
	}
	return primary, extras
}

// handleIngest fans one ingest batch out by replica set: each backend
// receives a single sub-batch holding every record it replicates, so a
// request costs at most one POST per backend no matter how the ring
// scatters the records. A record is acknowledged only when a write
// quorum (majority) of its replicas acked its sub-batch; records below
// quorum are reported individually in a quorum_failed envelope. Acked
// records are durable on every replica that succeeded — a quorum
// failure never rolls anything back. Replicas that missed an acked
// record get a hinted handoff: the drainer replays the write once the
// backend is healthy again.
func (c *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	c.metrics.ingestRequests.Add(1)
	var req server.IngestRequest
	if !c.shell.Decode(w, r, &req) {
		return
	}

	// Group records into one sub-batch per backend. Writes go to every
	// replica regardless of health state: the probe view may lag, and a
	// down replica simply counts as a failed ack (and earns a hint).
	type subBatch struct {
		b    *backend
		pos  map[int]int // request record index -> index in req.Records slice
		req  server.IngestRequest
		resp server.IngestResponse
		err  error
	}
	ring, next := c.rings()
	batches := make(map[string]*subBatch)
	replicas := make([][]string, len(req.Records)) // authoritative set per record
	extras := make([][]string, len(req.Records))   // migration-target additions
	addTo := func(i int, rec server.IngestRecord, addr string) {
		sb, ok := batches[addr]
		if !ok {
			sb = &subBatch{b: c.lookup(addr), pos: make(map[int]int)}
			if sb.b == nil {
				sb.err = leftFleet(addr)
			}
			sb.req.Detailed = true
			batches[addr] = sb
		}
		sb.pos[i] = len(sb.req.Records)
		sb.req.Records = append(sb.req.Records, rec)
	}
	for i, rec := range req.Records {
		replicas[i], extras[i] = c.placementFor(ring, next, rec.Name)
		for _, addr := range replicas[i] {
			addTo(i, rec, addr)
		}
		for _, addr := range extras[i] {
			addTo(i, rec, addr)
		}
		c.metrics.recordsRouted.Add(int64(len(replicas[i]) + len(extras[i])))
	}

	var wg sync.WaitGroup
	for _, sb := range batches {
		if sb.b == nil {
			continue
		}
		sb.b.routedRecords.Add(int64(len(sb.req.Records)))
		wg.Add(1)
		go func(sb *subBatch) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), c.cfg.FanoutTimeout)
			defer cancel()
			sb.err = c.client.do(ctx, sb.b, "POST", "/v1/records", &sb.req, &sb.resp)
			if sb.err == nil && len(sb.resp.Results) != len(sb.req.Records) {
				sb.err = fmt.Errorf("backend %s: ingest response lists %d results for %d records",
					sb.b.addr, len(sb.resp.Results), len(sb.req.Records))
			}
		}(sb)
	}
	wg.Wait()

	quorum := c.quorum()
	resp := server.IngestResponse{Received: len(req.Records)}
	var failures []server.RecordError
	hintsByAddr := make(map[string][]hint)
	expires := time.Now().Add(c.cfg.HintTTL).UnixNano()
	for i, rec := range req.Records {
		acks, added := 0, false
		var replicaErrs []string
		var missed []string
		for _, addr := range replicas[i] {
			sb := batches[addr]
			if sb.err != nil {
				replicaErrs = append(replicaErrs, sb.err.Error())
				missed = append(missed, addr)
				continue
			}
			acks++
			if sb.resp.Results[sb.pos[i]] {
				added = true
			}
		}
		if acks < quorum {
			failures = append(failures, server.RecordError{
				Name: rec.Name,
				Code: CodeBackendDown,
				Message: fmt.Sprintf("%d/%d replicas acked (need %d): %s",
					acks, len(replicas[i]), quorum, strings.Join(replicaErrs, "; ")),
			})
			continue
		}
		// The record is acked. Queue a hint for every replica that
		// missed it — authoritative or migration-target — so the write
		// catches up with the backend instead of waiting for a sweep.
		for _, addr := range extras[i] {
			if batches[addr].err != nil {
				missed = append(missed, addr)
			}
		}
		for _, addr := range missed {
			hintsByAddr[addr] = append(hintsByAddr[addr], hint{op: hintOpAdd, name: rec.Name, data: rec.Data, expires: expires})
		}
		// A record counts as added if any acking replica had not seen the
		// name before; replicas disagree only after a past partial write,
		// and "added somewhere" is the honest summary then.
		if added {
			resp.Added++
		} else {
			resp.Skipped++
		}
	}
	c.queueHints(hintsByAddr)
	if len(failures) > 0 {
		c.metrics.quorumFailures.Add(int64(len(failures)))
		server.WriteErrorDetail(w, http.StatusBadGateway, server.ErrorDetail{
			Code: CodeQuorumFailed,
			Message: fmt.Sprintf("%d of %d records missed their write quorum; records not listed were acked and are durable on their replicas",
				len(failures), len(req.Records)),
			Records: failures,
		})
		return
	}
	if req.Detailed {
		// Mirror the single-node contract for detailed callers: one flag
		// per request record. Recompute from the replica responses.
		resp.Results = make([]bool, len(req.Records))
		for i := range req.Records {
			for _, addr := range replicas[i] {
				sb := batches[addr]
				if sb.err == nil && sb.resp.Results[sb.pos[i]] {
					resp.Results[i] = true
					break
				}
			}
		}
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// leftFleet is the failure a write counts for a replica whose address a
// drain or a rolled-back join removed after the write took its ring
// snapshot: one missed ack, like a backend that did not answer.
func leftFleet(addr string) error { return fmt.Errorf("backend %s left the fleet", addr) }

// queueHints enqueues one request's hints, one durable append per
// backend. Enqueue failures only cost convergence speed (the sweep is
// the backstop), so they are logged, never surfaced to the writer —
// its quorum already held.
func (c *Coordinator) queueHints(byAddr map[string][]hint) {
	for addr, hs := range byAddr {
		if err := c.hints.enqueue(addr, hs...); err != nil {
			c.logf("hint enqueue for %s: %v", addr, err)
		}
	}
}

// handleDeleteRecord routes a delete to the record's replica set. The
// outcome follows the same quorum rule as ingest: with a majority of
// replicas responding, at least one 200 means deleted and unanimous
// 404s mean the record was never indexed; below quorum the truth is
// unknowable and the client gets quorum_failed with the record
// itemized, exactly like a failed ingest. Replicas that missed an
// acknowledged delete get a tombstone hint.
func (c *Coordinator) handleDeleteRecord(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ring, next := c.rings()
	primary, extras := c.placementFor(ring, next, name)
	targets := append(append([]string(nil), primary...), extras...)
	type result struct {
		addr string
		err  error
	}
	results := make([]result, len(targets))
	var wg sync.WaitGroup
	for i, addr := range targets {
		b := c.lookup(addr)
		if b == nil {
			results[i] = result{addr: addr, err: leftFleet(addr)}
			continue
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), c.cfg.FanoutTimeout)
			defer cancel()
			results[i] = result{addr: b.addr, err: c.client.do(ctx, b, "DELETE", "/v1/records/"+url.PathEscape(name), nil, nil)}
		}(i, b)
	}
	wg.Wait()

	deleted, notFound := 0, 0
	var replicaErrs []string
	var missed []string
	for i, res := range results {
		authoritative := i < len(primary)
		switch {
		case res.err == nil:
			if authoritative {
				deleted++
			}
		case isNotFound(res.err):
			if authoritative {
				notFound++
			}
		default:
			if authoritative {
				replicaErrs = append(replicaErrs, res.err.Error())
			}
			missed = append(missed, res.addr)
		}
	}
	if deleted+notFound < c.quorum() {
		c.metrics.quorumFailures.Add(1)
		msg := fmt.Sprintf("%d/%d replicas responded (need %d): %s",
			deleted+notFound, len(primary), c.quorum(), strings.Join(replicaErrs, "; "))
		server.WriteErrorDetail(w, http.StatusBadGateway, server.ErrorDetail{
			Code:    CodeQuorumFailed,
			Message: fmt.Sprintf("delete %q: %s", name, msg),
			Records: []server.RecordError{{Name: name, Code: CodeBackendDown, Message: msg}},
		})
		return
	}
	if deleted == 0 {
		server.WriteError(w, http.StatusNotFound, server.CodeNotFound, fmt.Sprintf("record %q is not indexed", name))
		return
	}
	// The delete is acknowledged: hint the tombstone to every replica
	// that missed it so it cannot resurrect the record on recovery.
	if len(missed) > 0 {
		expires := time.Now().Add(c.cfg.HintTTL).UnixNano()
		byAddr := make(map[string][]hint, len(missed))
		for _, addr := range missed {
			byAddr[addr] = append(byAddr[addr], hint{op: hintOpDelete, name: name, expires: expires})
		}
		c.queueHints(byAddr)
	}
	c.metrics.deletes.Add(1)
	server.WriteJSON(w, http.StatusOK, server.DeleteResponse{Deleted: name})
}

// handleGetRecord tries the record's replicas in ring order and
// returns the first hit. A 404 from one replica is not authoritative —
// it may have missed a quorum write the others took — so the lookup
// only reports not_found after every replica has answered 404. A hit
// found after another replica 404ed is replica disagreement: the name
// goes to the read-repair queue.
func (c *Coordinator) handleGetRecord(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ring, next := c.rings()
	primary, extras := c.placementFor(ring, next, name)
	saw404 := false
	var lastErr error
	for _, addr := range append(append([]string(nil), primary...), extras...) {
		b := c.lookup(addr)
		if b == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), c.cfg.FanoutTimeout)
		var rec server.RecordResponse
		err := c.client.do(ctx, b, "GET", "/v1/records/"+url.PathEscape(name), nil, &rec)
		cancel()
		if err == nil {
			if saw404 {
				c.repairs.offer(name)
			}
			server.WriteJSON(w, http.StatusOK, rec)
			return
		}
		if isNotFound(err) {
			saw404 = true
			continue
		}
		lastErr = err
	}
	if saw404 && lastErr == nil {
		server.WriteError(w, http.StatusNotFound, server.CodeNotFound, fmt.Sprintf("record %q is not indexed", name))
		return
	}
	server.WriteError(w, http.StatusBadGateway, CodeBackendDown,
		fmt.Sprintf("record %q: no replica could answer: %v", name, lastErr))
}
