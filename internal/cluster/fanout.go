package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"sketchengine/internal/core"
	"sketchengine/internal/server"
)

// searchCall is one backend's slot in a scatter-gather: filled by the
// first wave or the second, whichever reaches the backend. A slot with
// neither ok nor err set was never asked.
type searchCall struct {
	b    *backend
	resp server.SearchResponse
	ok   bool
	err  error
}

// searchCover is how many of n backends must answer a search for the
// result to be provably complete. A write is acked only once quorum()
// of the record's replicas hold it, so every acked record is on at
// least that many distinct backends, and leaving out quorum()-1 of the
// fleet still leaves one holder of each: n=3 at replication 2 (quorum
// 2) needs 2 answers, not 3. The ring is not consulted — it maps names,
// and a search has no name.
func (c *Coordinator) searchCover(n int) int { return n - (c.quorum() - 1) }

// handleSearch scatter-gathers a search over a covering set of the
// fleet. The first wave asks searchCover(n) backends whose breaker is
// closed and leaves the rest out: open-breaker backends first (a dead
// node costs a healthy fleet nothing), then whichever healthy ones the
// per-search rotation reaches last, so the saved call moves round-robin
// and no backend is spared or loaded more than another. The per-backend
// top-Ks are concatenated, deduped by ref (replication means up to
// Replication copies of every hit), and reduced with core.MergeTopK —
// the same bounded-heap merge and total order the in-process per-shard
// scan uses, which is what makes a coordinator's answer byte-identical
// to a single node over the same corpus, whichever backends answered.
//
// Only while fewer than searchCover(n) backends have answered does a
// second wave go out, to everyone who has not: a healthy backend the
// first wave left out is asked for the first time (free), and backends
// that failed the first wave or sit behind an open breaker get their one
// retry — the probe view lags reality — if the retry budget grants it.
// The response is complete exactly when the cover was reached; below
// it some acked record may have no responding holder, so it degrades to
// "partial": true, and with no answer at all to 502 backend_down.
//
// The cover holds through a join or drain (rings() returns a non-nil
// next) without a wider fallback: the fleet snapshot a search takes
// still lists every old-ring member, the joiner is added to it before
// any copy is streamed, and the drained backend leaves it only at
// commit, after every moved record reached its new replica — so an
// acked record keeps quorum() holders in that snapshot throughout
// (TestSearchDuringRebalance). The one exception is a write acked
// during a drain whose copy to its new replica failed: from the commit
// until its hint replays it is one holder short. Beyond that the cover
// assumes acked copies stay put: a replica that lost one out of band is
// seen only by the searches that ask it beside its partner (read
// repair, within a rotation), and the anti-entropy sweep is the
// backstop.
func (c *Coordinator) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req server.SearchRequest
	// The body's own check fails a bad mode or k here: fanning it out
	// would return backend 400s dressed up as a cluster fault.
	if !c.shell.Decode(w, r, &req) {
		return
	}
	c.metrics.searches.Add(1)

	// Encoded once: every backend in both waves is sent these bytes, which
	// are json.Marshal's (no newline). Not pooled: the transport may still
	// be sending them after a backend has answered.
	body, err := server.AppendJSON(make([]byte, 0, len(req.Name)+len(req.Data)+len(req.Mode)+128), &req)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, server.CodeInternal, fmt.Sprintf("search: encode request: %v", err))
		return
	}
	body = body[:len(body)-1]

	backends := c.backendList()
	n := len(backends)
	cover := c.searchCover(n)
	start := int(c.searchTurn.Add(1) % uint64(n))
	calls := make([]searchCall, n)
	wave := make([]*searchCall, 0, n)
	for i := range calls {
		calls[i].b = backends[(start+i)%n]
		if len(wave) < cover && calls[i].b.up() {
			wave = append(wave, &calls[i])
		}
	}
	responded := c.scatterSearch(r.Context(), wave, body)

	if responded < cover {
		var retry []*searchCall
		wave = wave[:0]
		for i := range calls {
			call := &calls[i]
			switch {
			case call.ok:
			case call.err == nil && call.b.up():
				wave = append(wave, call) // left out of wave one: a first call
			default:
				retry = append(retry, call) // failed wave one, or breaker open
			}
		}
		// An exhausted retry budget skips the retries (the first-time calls
		// still go) and the answer degrades to partial rather than joining
		// a retry storm against recovering backends.
		if len(retry) > 0 && c.budget.allow(len(retry)) {
			c.metrics.retries.Add(int64(len(retry)))
			wave = append(wave, retry...)
		}
		responded += c.scatterSearch(r.Context(), wave, body)
	}
	if responded == 0 {
		server.WriteError(w, http.StatusBadGateway, CodeBackendDown, "search: no backend responded")
		return
	}
	partial := responded < cover
	if partial {
		c.metrics.partials.Add(1)
	}

	// Concatenate, dedup by ref keeping the best-scored copy, merge.
	// Replicated copies of a hit are byte-equal, so "best" only matters
	// if replicas diverged mid-write; keeping the max keeps the answer
	// monotone with the most complete replica.
	total := 0
	for i := range calls {
		if calls[i].ok {
			total += len(calls[i].resp.Results)
		}
	}
	pooled := make([]core.Result, 0, total)
	seen := make(map[string]int, total)
	for i := range calls {
		call := &calls[i]
		if !call.ok {
			continue
		}
		for _, hit := range call.resp.Results {
			if j, dup := seen[hit.Ref]; dup {
				if hit.Similarity > pooled[j].Similarity {
					pooled[j].Similarity = hit.Similarity
					pooled[j].Distance = hit.Distance
				}
				continue
			}
			seen[hit.Ref] = len(pooled)
			pooled = append(pooled, core.Result{
				Query:      req.Name,
				Ref:        hit.Ref,
				Similarity: hit.Similarity,
				Distance:   hit.Distance,
			})
		}
	}
	merged := core.MergeTopK(pooled, req.K)
	if responded >= 2 { // disagreement needs two answers
		ring, _ := c.rings()
		c.offerSearchRepairs(ring, calls, merged, req.K)
	}
	// Zero-hit responses must encode as "results":[], matching the
	// single-node server (nil would marshal as null).
	hits := make([]server.SearchHit, 0, len(merged))
	for i, res := range merged {
		hits = append(hits, server.SearchHit{Rank: i + 1, Ref: res.Ref, Similarity: res.Similarity, Distance: res.Distance})
	}
	mode, _ := core.ParseSearchMode(req.Mode) // Check saw it parse
	server.WriteJSON(w, http.StatusOK, &server.SearchResponse{
		Query:   req.Name,
		Mode:    string(mode),
		Results: hits,
		Partial: partial,
	})
}

// offerSearchRepairs turns search results into anti-entropy signals: a
// merged hit absent from a responding replica that the ring says holds
// it — when that replica's list provably had room (fewer than k hits,
// or a strictly worse-scored tail) — is replica disagreement, and the
// record goes to the read-repair queue. Candidate-pruning modes can
// legitimately miss a hit the replica does hold, so this is a
// heuristic; a false positive only costs the repair worker one probe
// that finds nothing to fix.
func (c *Coordinator) offerSearchRepairs(ring *Ring, calls []searchCall, merged []core.Result, k int) {
	replicas := make([]string, 0, ring.Replication())
	for _, hit := range merged {
		replicas = ring.ReplicasAppend(replicas[:0], hit.Ref)
		for _, addr := range replicas {
			var call *searchCall
			for i := range calls { // at most n: a scan beats a map
				if calls[i].ok && calls[i].b.addr == addr {
					call = &calls[i]
				}
			}
			if call == nil {
				continue
			}
			found := false
			for _, res := range call.resp.Results {
				if res.Ref == hit.Ref {
					found = true
					break
				}
			}
			if found {
				continue
			}
			hadRoom := len(call.resp.Results) < k ||
				(len(call.resp.Results) > 0 && call.resp.Results[len(call.resp.Results)-1].Similarity < hit.Similarity)
			if hadRoom {
				c.repairs.offer(hit.Ref)
				break
			}
		}
	}
}

// scatterSearch sends the encoded search to every call's backend
// concurrently — the last on the caller's own goroutine — under one
// fan-out timeout for the wave, records each outcome in place and
// returns how many answered.
func (c *Coordinator) scatterSearch(ctx context.Context, wave []*searchCall, body []byte) int {
	if len(wave) == 0 {
		return 0
	}
	c.metrics.searchBackendCalls.Add(int64(len(wave)))
	ctx, cancel := context.WithTimeout(ctx, c.cfg.FanoutTimeout)
	defer cancel()
	ask := func(call *searchCall) {
		call.resp = server.SearchResponse{}
		call.err = c.client.doRaw(ctx, call.b, "POST", "/v1/search", body, &call.resp)
		call.ok = call.err == nil
	}
	last := len(wave) - 1
	var wg sync.WaitGroup
	wg.Add(last)
	for _, call := range wave[:last] {
		go func() {
			defer wg.Done()
			ask(call)
		}()
	}
	ask(wave[last])
	wg.Wait()
	responded := 0
	for _, call := range wave {
		if call.ok {
			responded++
		}
	}
	return responded
}
