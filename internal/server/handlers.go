package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sketchengine/internal/core"
	"sketchengine/internal/fault"
)

// IngestRecord is one record in an ingest request body. Data carries
// the record payload as a JSON string (UTF-8 text; arbitrary binary
// payloads should be transported in an escaped form of the caller's
// choosing — the engine sketches whatever bytes it is given).
type IngestRecord struct {
	Name string `json:"name"`
	Data string `json:"data"`
}

// IngestRequest is the body of POST /v1/records. Detailed asks the
// server to echo a per-record added flag in the response (Results);
// the cluster coordinator sets it so it can attribute added/skipped
// per record when a batch is split across replica sets. Plain clients
// leave it false and the response bytes are unchanged.
type IngestRequest struct {
	Records  []IngestRecord `json:"records"`
	Detailed bool           `json:"detailed,omitempty"`
}

// IngestResponse reports what happened to an ingest request's records.
// Skipped counts records whose names were already indexed (or repeated
// within the request). Results is present only when the request set
// Detailed: one flag per request record, true if that record was added.
type IngestResponse struct {
	Received int    `json:"received"`
	Added    int    `json:"added"`
	Skipped  int    `json:"skipped"`
	Results  []bool `json:"results,omitempty"`
}

// SearchRequest is the body of POST /v1/search. Zero values take the
// defaults: K 10, MinSimilarity 0 and Mode "lsh", on every node.
type SearchRequest struct {
	Name          string  `json:"name"`
	Data          string  `json:"data"`
	K             int     `json:"k"`
	MinSimilarity float64 `json:"min_similarity"`
	Mode          string  `json:"mode"`
}

// SearchHit is one ranked search result.
type SearchHit struct {
	Rank       int     `json:"rank"`
	Ref        string  `json:"ref"`
	Similarity float64 `json:"similarity"`
	Distance   float64 `json:"distance"`
}

// SearchResponse is the body returned by POST /v1/search. Partial is
// set only by the cluster coordinator, when enough backends failed
// that a whole replica set may be unrepresented in Results;
// single-node servers never set it, so their responses are unchanged.
type SearchResponse struct {
	Query   string      `json:"query"`
	Mode    string      `json:"mode"`
	Results []SearchHit `json:"results"`
	Partial bool        `json:"partial,omitempty"`
}

// RecordResponse describes an indexed record (GET /v1/records/{name}).
// Shingles and Signature are populated only when the request asked for
// them with ?signature=1 — the cluster repair path, which needs the
// stored sketch, not just existence.
type RecordResponse struct {
	Name          string   `json:"name"`
	K             int      `json:"k"`
	SignatureSize int      `json:"signature_size"`
	Shingles      int      `json:"shingles,omitempty"`
	Signature     []uint64 `json:"signature,omitempty"`
}

// ReplicaRecord is one record in the replication wire format: the
// stored full-width sketch as-is, so a copy lands byte-identical on the
// receiver without re-sketching. Bits is never sent; replicate accepts
// it only absent or 64, as older senders wrote it.
type ReplicaRecord struct {
	Name      string   `json:"name"`
	Shingles  int      `json:"shingles"`
	Bits      int      `json:"bits,omitempty"`
	Signature []uint64 `json:"signature"`
}

// RecordListResponse is one page of GET /v1/records: records shard by
// shard, in insertion order within a shard, plus the cursor for the
// next page (absent on the last page).
type RecordListResponse struct {
	Records    []ReplicaRecord `json:"records"`
	NextCursor string          `json:"next_cursor,omitempty"`
}

// ReplicateRequest is the body of POST /v1/admin/replicate: pre-built
// sketches to insert directly, bypassing the sketcher. The response is
// an IngestResponse; names already indexed count as skipped, which is
// what makes replays and repair sweeps idempotent.
type ReplicateRequest struct {
	Records []ReplicaRecord `json:"records"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status  string `json:"status"`
	Records int    `json:"records"`
}

// StatsResponse is the body of GET /stats: engine/index state plus the
// server's request and ingest counters. It is also the one definition
// of /metrics: WriteProm renders the fields tagged prom, here and in
// the structs below. Faults appears only while a fault-injection spec is
// armed: injected-fault counts keyed "point:kind", so chaos runs can
// attribute failures to the spec.
type StatsResponse struct {
	Engine        core.Stats       `json:"engine"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Requests      RequestStats     `json:"requests"`
	Ingest        IngestStats      `json:"ingest"`
	Snapshots     int64            `json:"snapshots" prom:"snapshots_total" help:"Snapshots written."`
	Faults        map[string]int64 `json:"faults,omitempty"`
}

// RequestStats are the shell's middleware counters plus the handlers'
// own. DeadlineExceeded counts searches aborted by an expired propagated
// deadline (504s); Canceled counts searches aborted because the caller
// disconnected mid-scan.
type RequestStats struct {
	HTTPStats
	Searches         int64 `json:"searches" prom:"searches_total" help:"Search requests served."`
	Deletes          int64 `json:"deletes" prom:"deletes_total" help:"Records deleted over HTTP."`
	DeadlineExceeded int64 `json:"deadline_exceeded,omitempty" prom:"search_deadline_exceeded_total" help:"Searches aborted by an expired propagated deadline."`
	Canceled         int64 `json:"canceled,omitempty" prom:"search_canceled_total" help:"Searches aborted by caller disconnect."`
}

// IngestStats count the ingest path: Batches is the engine add calls
// made, one per ingest request that decoded, and BatchedRecords the
// records across them, so BatchedRecords/Batches is the mean request
// size.
type IngestStats struct {
	Requests       int64 `json:"requests" prom:"ingest_requests_total" help:"Ingest requests received."`
	RecordsAdded   int64 `json:"records_added" prom:"records_added_total" help:"Records added by ingest."`
	Replicated     int64 `json:"replicated,omitempty" prom:"records_replicated_total" help:"Sketches accepted via the replicate endpoint."`
	Batches        int64 `json:"batches" prom:"ingest_batches_total" help:"Engine add calls made for ingest requests."`
	BatchedRecords int64 `json:"batched_records" prom:"ingest_batched_records_total" help:"Records across those add calls."`
	MaxBatch       int   `json:"max_batch"`
}

// DeleteResponse is the body of a successful DELETE /v1/records/{name}.
type DeleteResponse struct {
	Deleted string `json:"deleted"`
}

// ErrorDetail is the error object inside every non-2xx response. Code
// is a stable machine-readable slug (the constants below); Message is
// prose for humans and logs. Records is set only by the cluster
// coordinator on quorum failures, one entry per record that missed its
// write quorum; single-node servers never populate it.
type ErrorDetail struct {
	Code    string        `json:"code"`
	Message string        `json:"message"`
	Records []RecordError `json:"records,omitempty"`
}

// RecordError is one record's failure inside a coordinator
// quorum_failed envelope.
type RecordError struct {
	Name    string `json:"name"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorBody is the JSON envelope of every non-2xx response:
// {"error":{"code":"...","message":"..."}}.
type errorBody struct {
	Error ErrorDetail `json:"error"`
}

// Error codes carried in ErrorDetail.Code.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodePayloadTooLarge  = "payload_too_large"
	CodeShuttingDown     = "shutting_down"
	CodeCanceled         = "canceled"
	CodeOverloaded       = "overloaded"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeInternal         = "internal"
	// CodeDeadlineExceeded (504): the request carried a deadline (the
	// coordinator's X-Sketch-Deadline header or the fan-out context) and
	// it expired before the work finished; in-flight scoring was aborted.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeCursorGone (410): a GET /v1/records cursor names a record
	// that has since been deleted, so the walk cannot prove where to
	// resume. Restart the enumeration from the beginning.
	CodeCursorGone = "cursor_gone"
)

// DeadlineHeader carries a request's absolute deadline, as integer Unix
// milliseconds, from the cluster coordinator to a backend. An absolute
// timestamp (rather than a remaining-time duration) means queueing and
// network delays eat into the budget instead of silently extending it.
const DeadlineHeader = "X-Sketch-Deadline"

// CodeForStatus maps a bare HTTP status (from the routing layer, which
// never picks its own slug) to the closest error code.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusRequestEntityTooLarge:
		return CodePayloadTooLarge
	case http.StatusServiceUnavailable:
		return CodeOverloaded
	case http.StatusGatewayTimeout:
		return CodeDeadlineExceeded
	default:
		if status >= 500 {
			return CodeInternal
		}
		return CodeBadRequest
	}
}

func (s *Server) routes() http.Handler {
	mux, timed := http.NewServeMux(), s.shell.Timed
	mux.HandleFunc("POST /v1/records", timed("ingest", s.handleIngest))
	mux.HandleFunc("POST /v1/search", timed("search", s.handleSearch))
	mux.HandleFunc("GET /v1/records", timed("list_records", s.handleListRecords))
	mux.HandleFunc("GET /v1/records/{name}", timed("get_record", s.handleGetRecord))
	mux.HandleFunc("DELETE /v1/records/{name}", timed("delete_record", s.handleDeleteRecord))
	mux.HandleFunc("POST /v1/admin/replicate", timed("replicate", s.handleReplicate))
	mux.HandleFunc("GET /healthz", timed("healthz", s.handleHealthz))
	mux.HandleFunc("GET /stats", timed("stats", s.handleStats))
	mux.HandleFunc("GET /metrics", timed("metrics", s.handleMetrics))
	return mux
}

// Check is the ingest body's rule: 1 to maxBatch records, all named.
func (q *IngestRequest) Check(maxBatch int) (int, string) {
	return checkBatch("ingest", len(q.Records), maxBatch, func(i int) string { return q.Records[i].Name })
}

// Check is the replicate body's rule, the same as ingest's.
func (q *ReplicateRequest) Check(maxBatch int) (int, string) {
	return checkBatch("replicate", len(q.Records), maxBatch, func(i int) string { return q.Records[i].Name })
}

// Check is the search body's rule: a mode that parses (empty is
// "lsh"), K defaulted to 10 and not negative.
func (q *SearchRequest) Check(int) (int, string) {
	if _, err := core.ParseSearchMode(q.Mode); err != nil {
		return http.StatusBadRequest, err.Error()
	}
	if q.K == 0 {
		q.K = 10
	}
	if q.K < 0 {
		return http.StatusBadRequest, fmt.Sprintf("search: k must be positive, got %d", q.K)
	}
	return 0, ""
}

// beginWrite takes the shutdown gate for a write handler, which releases
// s.writeMu (held shared) when it returns; once Close has set the gate it
// answers 503 instead and reports false.
func (s *Server) beginWrite(w http.ResponseWriter) bool {
	s.writeMu.RLock()
	if s.closed {
		s.writeMu.RUnlock()
		WriteError(w, http.StatusServiceUnavailable, CodeShuttingDown, "server is shutting down")
		return false
	}
	return true
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.metrics.ingestRequests.Add(1)
	var req IngestRequest
	if !s.shell.Decode(w, r, &req) {
		return
	}
	recs := make([]core.Record, len(req.Records))
	for i, rec := range req.Records {
		recs[i] = core.Record{Name: rec.Name, Data: []byte(rec.Data)}
	}
	if !s.beginWrite(w) {
		return
	}
	defer s.writeMu.RUnlock()
	oks, err := s.eng.AddBatch(recs)
	s.metrics.batches.Add(1)
	s.metrics.batchedRecords.Add(int64(len(recs)))
	if err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, fmt.Sprintf("ingest: %v", err))
		return
	}
	resp := IngestResponse{Received: len(recs)}
	for _, ok := range oks {
		if ok {
			resp.Added++
		}
	}
	s.metrics.recordsAdded.Add(int64(resp.Added))
	resp.Skipped = resp.Received - resp.Added
	if req.Detailed {
		resp.Results = oks
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !s.shell.Decode(w, r, &req) {
		return
	}
	mode, _ := core.ParseSearchMode(req.Mode) // Check saw it parse
	// Honor a propagated coordinator deadline: the scoring loops poll
	// the derived context, so an expired budget aborts the scan instead
	// of computing an answer nobody is waiting for. The caller-gone case
	// (r.Context() canceled) rides the same context.
	ctx := r.Context()
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, perr := strconv.ParseInt(h, 10, 64)
		if perr != nil {
			WriteError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("search: malformed %s header %q: want Unix milliseconds", DeadlineHeader, h))
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.UnixMilli(ms))
		defer cancel()
	}
	s.metrics.searches.Add(1)
	results, err := s.eng.Search(ctx, core.Record{Name: req.Name, Data: []byte(req.Data)},
		core.Query{Mode: mode, TopK: req.K, MinSim: req.MinSimilarity})
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.metrics.deadlineExceeded.Add(1)
			WriteError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded,
				"search: deadline exceeded before scoring finished")
		case errors.Is(err, context.Canceled):
			s.metrics.searchCanceled.Add(1)
			WriteError(w, http.StatusServiceUnavailable, CodeCanceled, "search: request canceled by the caller")
		default:
			WriteError(w, http.StatusInternalServerError, CodeInternal, fmt.Sprintf("search: %v", err))
		}
		return
	}
	// The hit slice and the response struct come from pools: WriteJSON
	// has fully serialized them before this handler returns them, so
	// steady-state search responses reuse one warm buffer set instead of
	// allocating per request.
	hits := searchHitsPool.Get().(*[]SearchHit)
	*hits = (*hits)[:0]
	for i, res := range results {
		*hits = append(*hits, SearchHit{Rank: i + 1, Ref: res.Ref, Similarity: res.Similarity, Distance: res.Distance})
	}
	resp := searchRespPool.Get().(*SearchResponse)
	*resp = SearchResponse{Query: req.Name, Mode: string(mode), Results: *hits}
	WriteJSON(w, http.StatusOK, resp)
	resp.Results = nil
	searchRespPool.Put(resp)
	searchHitsPool.Put(hits)
}

var (
	// New returns a non-nil empty slice: zero-hit responses must encode
	// as "results":[] (nil would marshal as null).
	searchHitsPool = sync.Pool{New: func() any { s := make([]SearchHit, 0, 16); return &s }}
	searchRespPool = sync.Pool{New: func() any { return new(SearchResponse) }}
)

func (s *Server) handleGetRecord(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ix := s.eng.Index()
	meta := ix.Metadata()
	if v := r.URL.Query().Get("signature"); v == "1" || v == "true" {
		// The repair path wants the stored sketch, so pay for reading it
		// back from the full store.
		sk := ix.Get(name)
		if sk == nil {
			WriteError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("record %q is not indexed", name))
			return
		}
		WriteJSON(w, http.StatusOK, RecordResponse{
			Name:          name,
			K:             meta.K,
			SignatureSize: meta.SignatureSize,
			Shingles:      sk.Shingles,
			Signature:     sk.Signature,
		})
		return
	}
	// Has instead of Get: the response only carries metadata, and Get
	// would read (and copy) the record's signature from the full store
	// just to throw it away.
	if !ix.Has(name) {
		WriteError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("record %q is not indexed", name))
		return
	}
	WriteJSON(w, http.StatusOK, RecordResponse{
		Name:          name,
		K:             meta.K,
		SignatureSize: meta.SignatureSize,
	})
}

// handleListRecords pages through the corpus shard by shard, in
// insertion order within a shard (see core.Index.Records):
// GET /v1/records?cursor=<last name>&limit=N. Each page carries the
// stored sketches in the replication wire format, so a consumer (the
// cluster rebalancer, a backup tool) can rebuild replicas without
// re-sketching. An empty next_cursor ends the walk; a cursor that
// went stale across a delete gets 410 cursor_gone — restart.
func (s *Server) handleListRecords(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := core.DefaultPageSize
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > s.shell.cfg.MaxBatch {
			WriteError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("list: limit must be in [1, %d], got %q", s.shell.cfg.MaxBatch, v))
			return
		}
		limit = n
	}
	sketches, next, err := s.eng.Index().Records(q.Get("cursor"), limit)
	if err != nil {
		if errors.Is(err, core.ErrCursorGone) {
			WriteError(w, http.StatusGone, CodeCursorGone, err.Error())
			return
		}
		WriteError(w, http.StatusInternalServerError, CodeInternal, fmt.Sprintf("list: %v", err))
		return
	}
	// Zero-record pages must encode as "records":[], matching the
	// ingest/search contract (nil would marshal as null).
	recs := make([]ReplicaRecord, 0, len(sketches))
	for _, sk := range sketches {
		recs = append(recs, ReplicaRecord{
			Name:      sk.Name,
			Shingles:  sk.Shingles,
			Signature: sk.Signature,
		})
	}
	WriteJSON(w, http.StatusOK, RecordListResponse{Records: recs, NextCursor: next})
}

// handleReplicate inserts pre-built sketches, bypassing the sketcher:
// this is how a repaired or rebalanced copy arrives byte-identical to the
// original. A sketch the index cannot hold (wrong signature size, slot
// values narrower than 64 bits) is the sender's fault and gets 400; any
// other failure —
// storage, or the commit behind the inserts — is 500. Either way the
// batch is not acknowledged.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var req ReplicateRequest
	if !s.shell.Decode(w, r, &req) {
		return
	}
	meta := s.eng.Index().Metadata()
	sketches := make([]*core.Sketch, len(req.Records))
	for i, rec := range req.Records {
		if rec.Bits != 0 && rec.Bits != 64 {
			WriteError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("replicate: record %q carries %d-bit slots; only full-width (64-bit) signatures are accepted", rec.Name, rec.Bits))
			return
		}
		sketches[i] = &core.Sketch{
			Name:      rec.Name,
			K:         meta.K,
			Shingles:  rec.Shingles,
			Signature: rec.Signature,
		}
	}
	if !s.beginWrite(w) {
		return
	}
	defer s.writeMu.RUnlock()
	oks, err := s.eng.AddSketches(sketches)
	if err != nil {
		status, code := http.StatusInternalServerError, CodeInternal
		if invalid := (*core.SketchError)(nil); errors.As(err, &invalid) {
			status, code = http.StatusBadRequest, CodeBadRequest
		}
		WriteError(w, status, code, fmt.Sprintf("replicate: %v", err))
		return
	}
	added := 0
	for _, ok := range oks {
		if ok {
			added++
		}
	}
	s.metrics.replicated.Add(int64(added))
	WriteJSON(w, http.StatusOK, IngestResponse{
		Received: len(req.Records),
		Added:    added,
		Skipped:  len(req.Records) - added,
	})
}

func (s *Server) handleDeleteRecord(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.beginWrite(w) {
		return
	}
	defer s.writeMu.RUnlock()
	ok, err := s.eng.Delete(name)
	if err != nil {
		// The tombstone may be in memory but its WAL record did not reach
		// disk; withholding the ack keeps "deleted" meaning durable.
		WriteError(w, http.StatusInternalServerError, CodeInternal, fmt.Sprintf("delete: %v", err))
		return
	}
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("record %q is not indexed", name))
		return
	}
	s.metrics.deletes.Add(1)
	WriteJSON(w, http.StatusOK, DeleteResponse{Deleted: name})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok", Records: s.eng.Index().Len()})
}

// stats is the one snapshot both /stats and /metrics are rendered from.
func (s *Server) stats() StatsResponse {
	m := s.metrics
	var faults map[string]int64
	if p := fault.Active(); p != nil {
		faults = p.Counters()
	}
	return StatsResponse{
		Engine:        s.eng.Stats(),
		UptimeSeconds: s.shell.UptimeSeconds(),
		Requests: RequestStats{
			HTTPStats:        s.shell.HTTPStats(),
			Searches:         m.searches.Load(),
			Deletes:          m.deletes.Load(),
			DeadlineExceeded: m.deadlineExceeded.Load(),
			Canceled:         m.searchCanceled.Load(),
		},
		Ingest: IngestStats{
			Requests:       m.ingestRequests.Load(),
			RecordsAdded:   m.recordsAdded.Load(),
			Replicated:     m.replicated.Load(),
			Batches:        m.batches.Load(),
			BatchedRecords: m.batchedRecords.Load(),
			MaxBatch:       s.shell.cfg.MaxBatch,
		},
		Snapshots: m.snapshots.Load(),
		Faults:    faults,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteProm(w, "sketchengine_", s.stats(),
		s.shell.Latencies("sketchengine_http_request_duration_seconds", "Request latency by endpoint."))
}

// jsonBufPool recycles the buffers request bodies are read into (Decode)
// and JSON responses encoded into. Encoding into a pooled buffer first
// (instead of streaming into the ResponseWriter) costs one copy but saves
// the per-response encoder allocations and lets us emit Content-Length.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBufBytes caps the buffers kept in the pool so one giant body
// or response cannot pin its buffer forever.
const maxPooledBufBytes = 1 << 20

// WriteJSON serializes v into a pooled buffer and writes it with
// Content-Length set. It is the one JSON emitter for this package and
// the cluster coordinator, so the Content-Type discriminator jsonErrors
// relies on is set consistently.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	// Encoding these response types cannot fail; a broken connection
	// surfaces on the Write below, to the client.
	b, _ := AppendJSON(buf.AvailableBuffer(), v)
	buf.Write(b) // in place, or into the room b grew to, kept for reuse
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	putJSONBuf(buf)
}

func putJSONBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBufBytes {
		jsonBufPool.Put(buf)
	}
}

// WriteError writes the standard error envelope
// {"error":{"code":code,"message":msg}} with the given status.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, errorBody{Error: ErrorDetail{Code: code, Message: msg}})
}

// WriteErrorDetail writes an envelope around a caller-built ErrorDetail,
// for errors that carry more than a code and a message (the
// coordinator's per-record quorum failures).
func WriteErrorDetail(w http.ResponseWriter, status int, d ErrorDetail) {
	WriteJSON(w, status, errorBody{Error: d})
}

// marshalError renders the envelope for the routing-layer interceptor,
// which writes it directly rather than through WriteJSON.
func marshalError(code, msg string) []byte {
	b, _ := json.Marshal(errorBody{Error: ErrorDetail{Code: code, Message: msg}})
	return append(b, '\n')
}
