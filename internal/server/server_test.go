package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sketchengine/internal/core"
)

func testEngine(t testing.TB) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.Options{K: 4, SignatureSize: 64, IndexName: "servertest", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// newTestServer wraps a fresh engine in a Server and an httptest
// front end; both are torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(testEngine(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return s, ts
}

func postJSON(t testing.TB, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func ingestBody(names ...string) IngestRequest {
	var req IngestRequest
	for _, n := range names {
		req.Records = append(req.Records, IngestRecord{
			Name: n,
			Data: "shared payload stem for " + n + " with plenty of overlapping shingles",
		})
	}
	return req
}

func TestIngestSearchRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()

	resp, body := postJSON(t, client, ts.URL+"/v1/records", ingestBody("alpha", "beta", "gamma"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, body)
	}
	var ing IngestResponse
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Received != 3 || ing.Added != 3 || ing.Skipped != 0 {
		t.Fatalf("ingest = %+v, want 3 received/added", ing)
	}

	// Re-ingesting the same names is skip-existing, like the CLI.
	resp, body = postJSON(t, client, ts.URL+"/v1/records", ingestBody("alpha", "delta"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-ingest status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Added != 1 || ing.Skipped != 1 {
		t.Fatalf("re-ingest = %+v, want 1 added 1 skipped", ing)
	}

	// Search must rank alpha's near-duplicate payload first, in both
	// modes, including the per-request exact override.
	for _, mode := range []string{"", "lsh", "exact"} {
		resp, body = postJSON(t, client, ts.URL+"/v1/search", SearchRequest{
			Name: "q",
			Data: "shared payload stem for alpha with plenty of overlapping shingles",
			K:    2,
			Mode: mode,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status = %d, body %s", resp.StatusCode, body)
		}
		var sr SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Results) == 0 || sr.Results[0].Ref != "alpha" || sr.Results[0].Rank != 1 {
			t.Fatalf("search (mode %q) = %+v, want alpha first", mode, sr)
		}
		if want := cmp.Or(mode, "lsh"); sr.Mode != want {
			t.Fatalf("search (mode %q) answered mode %q, want %q", mode, sr.Mode, want)
		}
	}

	// Record lookup, health, and stats.
	resp, err := client.Get(ts.URL + "/v1/records/beta")
	if err != nil {
		t.Fatal(err)
	}
	var rec RecordResponse
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rec.Name != "beta" || rec.K != 4 || rec.SignatureSize != 64 {
		t.Fatalf("get record = %d %+v", resp.StatusCode, rec)
	}

	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Records != 4 {
		t.Fatalf("health = %+v, want ok with 4 records", health)
	}

	resp, err = client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Engine.Records != 4 || stats.Engine.IndexName != "servertest" {
		t.Fatalf("stats engine = %+v", stats.Engine)
	}
	if stats.Ingest.RecordsAdded != 4 || stats.Ingest.Batches == 0 {
		t.Fatalf("stats ingest = %+v", stats.Ingest)
	}
	if stats.Requests.Total == 0 || stats.Requests.Status2xx == 0 {
		t.Fatalf("stats requests = %+v", stats.Requests)
	}
	if got := len(stats.Engine.ShardOccupancy); got != 4 {
		t.Fatalf("shard occupancy has %d entries, want 4", got)
	}
	// Arena memory reporting: 4 records of 64 slots is 4*32 prefilter
	// bytes, one nibble a slot.
	if stats.Engine.Bits != 4 || stats.Engine.SignatureBytes != 4*32 ||
		stats.Engine.BytesPerRecord != 32 {
		t.Fatalf("stats arena = bits=%d signature_bytes=%d bytes_per_record=%v, want 4/128/32",
			stats.Engine.Bits, stats.Engine.SignatureBytes, stats.Engine.BytesPerRecord)
	}
	if u := stats.Engine.ArenaUtilized; u <= 0 || u > 1 {
		t.Fatalf("arena utilization = %v, want in (0,1]", u)
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2, MaxBodyBytes: 512})
	client := ts.Client()

	post := func(path, body string) (*http.Response, string) {
		t.Helper()
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(out)
	}

	cases := []struct {
		name     string
		path     string
		body     string
		wantCode int
	}{
		{"malformed ingest JSON", "/v1/records", `{"records": [`, http.StatusBadRequest},
		{"trailing garbage", "/v1/records", `{"records": []}{"x":1}`, http.StatusBadRequest},
		{"empty records", "/v1/records", `{"records": []}`, http.StatusBadRequest},
		{"empty record name", "/v1/records", `{"records": [{"name": "", "data": "x"}]}`, http.StatusBadRequest},
		{"oversized batch", "/v1/records",
			`{"records": [{"name":"a","data":"x"},{"name":"b","data":"x"},{"name":"c","data":"x"}]}`,
			http.StatusRequestEntityTooLarge},
		{"oversized body", "/v1/records",
			`{"records": [{"name":"big","data":"` + strings.Repeat("x", 1024) + `"}]}`,
			http.StatusRequestEntityTooLarge},
		{"malformed search JSON", "/v1/search", `not json`, http.StatusBadRequest},
		{"bad search mode", "/v1/search", `{"data": "abc", "mode": "fuzzy"}`, http.StatusBadRequest},
		{"negative k", "/v1/search", `{"data": "abc", "k": -3}`, http.StatusBadRequest},
		// json.Decoder.More() is false before ']' and '}', so these tails
		// used to be accepted; the last goes down the stdlib path alone.
		{"trailing brackets", "/v1/search", `{"name":"q","data":"x"} ]]] junk`, http.StatusBadRequest},
		{"trailing brace", "/v1/search", `{"name":"q","data":"x"}}`, http.StatusBadRequest},
		{"trailing bracket after ingest", "/v1/records", `{"records":[{"name":"a","data":"x"}]} ]`, http.StatusBadRequest},
		{"trailing brace after replicate", "/v1/admin/replicate", `{"records":[]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(tc.path, tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantCode, body)
			}
			var eb errorBody
			if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error.Code != CodeForStatus(tc.wantCode) || eb.Error.Message == "" {
				t.Fatalf("error body %q is not {\"error\":{\"code\",\"message\"}}: %v", body, err)
			}
			if strings.HasPrefix(tc.name, "trailing") && eb.Error.Message != "malformed JSON body: trailing data" {
				t.Fatalf("refused for %q, want the trailing-data rule", eb.Error.Message)
			}
		})
	}

	// Search against a completely empty index succeeds with an empty,
	// non-null result array.
	resp, body := post("/v1/search", `{"name": "q", "data": "anything at all here"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-index search status = %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"results":[]`) {
		t.Fatalf("empty-index search body = %s, want empty results array", body)
	}

	// Unknown record name.
	getResp, err := client.Get(ts.URL + "/v1/records/no-such-record")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown record status = %d, want 404", getResp.StatusCode)
	}

	// Wrong method on a typed route.
	getResp, err = client.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search status = %d, want 405", getResp.StatusCode)
	}
}

func TestSnapshotLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := New(tieredTestEngine(t, dir), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// New committed the still-empty index's first manifest, so the
	// directory is an index before any ingest or snapshot.
	if ix, err := core.Open(dir); err != nil || ix.Len() != 0 {
		t.Fatalf("directory after New: %v", err)
	} else {
		ix.Close()
	}
	// Clean index: the snapshot is skipped.
	wrote, err := s.Snapshot()
	if err != nil || wrote {
		t.Fatalf("clean snapshot = %v, %v; want skipped", wrote, err)
	}
	if _, err := s.Engine().AddBatch([]core.Record{{Name: "rec", Data: []byte("some payload for the snapshot")}}); err != nil {
		t.Fatal(err)
	}
	wrote, err = s.Snapshot()
	if err != nil || !wrote {
		t.Fatalf("dirty snapshot = %v, %v; want written", wrote, err)
	}
	ix, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Len() != 1 || ix.Get("rec") == nil {
		t.Fatalf("snapshot holds %d records, want rec", ix.Len())
	}
	// An in-memory engine is served without snapshots.
	mem, err := New(testEngine(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if _, err := mem.Engine().AddBatch([]core.Record{{Name: "rec", Data: []byte("some payload for the snapshot")}}); err != nil {
		t.Fatal(err)
	}
	if wrote, err := mem.Snapshot(); err != nil || wrote {
		t.Fatalf("in-memory snapshot = %v, %v; want a no-op", wrote, err)
	}
}

// TestIngestAfterClose pins the timed-out-drain straggler behavior: a
// write of any kind that arrives after Close is refused with 503 — its
// ack would come after the final snapshot, and cmdServe closes the index
// and its WALs next — while read-only endpoints keep serving.
func TestIngestAfterClose(t *testing.T) {
	s, err := New(testEngine(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Engine().AddBatch([]core.Record{{Name: "kept", Data: []byte("payload indexed before the close")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/records/kept", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		do   func() (*http.Response, []byte)
	}{
		{"ingest", func() (*http.Response, []byte) {
			return postJSON(t, ts.Client(), ts.URL+"/v1/records", ingestBody("straggler"))
		}},
		{"replicate", func() (*http.Response, []byte) {
			return postJSON(t, ts.Client(), ts.URL+"/v1/admin/replicate",
				ReplicateRequest{Records: []ReplicaRecord{replicaOf(s.Engine(), "straggler")}})
		}},
		{"delete", func() (*http.Response, []byte) {
			resp, err := ts.Client().Do(del)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			return resp, body
		}},
	} {
		resp, body := tc.do()
		var eb errorBody
		if err := json.Unmarshal(body, &eb); resp.StatusCode != http.StatusServiceUnavailable || err != nil || eb.Error.Code != CodeShuttingDown {
			t.Errorf("post-close %s = %d %s, want 503 %s", tc.name, resp.StatusCode, body, CodeShuttingDown)
		}
	}
	if ix := s.Engine().Index(); ix.Len() != 1 || !ix.Has("kept") {
		t.Errorf("a refused write changed the index: %d records", ix.Len())
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/search", SearchRequest{
		Data: "payload indexed before the close",
	})
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ref":"kept"`)) {
		t.Fatalf("post-close search = %d %s, want 200 hitting kept", resp.StatusCode, body)
	}
}

// TestBatcherCoalesces keeps its name from the ingest queue it used to
// watch coalesce: 128 concurrent single-record ingests all land, and the
// ingest counters say one engine add call per request.
func TestBatcherCoalesces(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	client := ts.Client()

	const clients = 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, body := postJSON(t, client, ts.URL+"/v1/records",
					ingestBody(fmt.Sprintf("rec-%d-%d", c, i)))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest status = %d, body %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()

	const total = clients * 8
	if got := s.Engine().Index().Len(); got != total {
		t.Fatalf("index has %d records, want %d", got, total)
	}
	m := s.metrics
	if m.recordsAdded.Load() != total || m.batchedRecords.Load() != total {
		t.Fatalf("added=%d batched=%d, want %d", m.recordsAdded.Load(), m.batchedRecords.Load(), total)
	}
	if b, r := m.batches.Load(), m.ingestRequests.Load(); b != total || r != total {
		t.Fatalf("batches=%d requests=%d, want %d each", b, r, total)
	}
}

// startServer runs a real listener + Serve loop for load tests,
// returning the base URL and a stop func that cancels and waits for the
// drain to finish.
func startServer(t *testing.T, s *Server) (string, func() error) {
	t.Helper()
	s.shell.cfg.Addr = "127.0.0.1:0"
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx) }()
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			return fmt.Errorf("server did not drain within 30s")
		}
	}
	t.Cleanup(func() {
		if err := stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	return "http://" + addr.String(), stop
}

// TestConcurrentLoad drives 32 clients mixing ingest and search against
// a live server; every response must be 2xx (the acceptance load test,
// run under -race by `make test`).
func TestConcurrentLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := New(tieredTestEngine(t, dir), Config{MaxInFlight: 16})
	if err != nil {
		t.Fatal(err)
	}
	base, stop := startServer(t, s)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer client.CloseIdleConnections()

	const clients = 32
	const opsPerClient = 30
	var added atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				switch i % 3 {
				case 0, 1: // ingest a fresh record
					name := fmt.Sprintf("load-%d-%d", c, i)
					resp, body := postJSON(t, client, base+"/v1/records", ingestBody(name))
					if resp.StatusCode != http.StatusOK {
						t.Errorf("ingest status = %d, body %s", resp.StatusCode, body)
						return
					}
					var ing IngestResponse
					if err := json.Unmarshal(body, &ing); err != nil {
						t.Error(err)
						return
					}
					added.Add(int64(ing.Added))
				case 2: // search while others ingest
					resp, body := postJSON(t, client, base+"/v1/search", SearchRequest{
						Name: fmt.Sprintf("q-%d-%d", c, i),
						Data: fmt.Sprintf("shared payload stem for load-%d-%d with plenty of overlapping shingles", c, i-1),
						K:    3,
					})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("search status = %d, body %s", resp.StatusCode, body)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The limiter's bound held under load.
	resp, body := postJSON(t, client, base+"/v1/search", SearchRequest{Data: "final probe payload"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final search = %d, body %s", resp.StatusCode, body)
	}
	statsResp, err := client.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if stats.Requests.PeakInFlight > int64(s.shell.cfg.MaxInFlight) {
		t.Fatalf("peak in-flight %d exceeded the limit %d", stats.Requests.PeakInFlight, s.shell.cfg.MaxInFlight)
	}
	if stats.Requests.Status5xx != 0 {
		t.Fatalf("saw %d 5xx responses under load", stats.Requests.Status5xx)
	}

	// A clean stop drains and snapshots every acknowledged record.
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ix, err := core.Open(dir)
	if err != nil {
		t.Fatalf("snapshot is not loadable: %v", err)
	}
	defer ix.Close()
	if int64(ix.Len()) != added.Load() {
		t.Fatalf("snapshot has %d records, want %d acknowledged adds", ix.Len(), added.Load())
	}
}

// TestLimiterQueuesThenRefuses: the in-flight limiter, the one
// admission control on both node roles, holds a request past
// MaxInFlight until a slot frees, and refuses only a waiter whose
// context ends first: 503 overloaded, counted as a 5xx.
func TestLimiterQueuesThenRefuses(t *testing.T) {
	sh := NewShell(Config{MaxInFlight: 1})
	entered, release := make(chan struct{}, 2), make(chan struct{})
	routes := http.NewServeMux()
	routes.HandleFunc("GET /block", func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		WriteJSON(w, http.StatusOK, struct{}{})
	})
	sh.Mount(routes)
	serve := func(ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		sh.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/block", nil).WithContext(ctx))
		return rec
	}
	first, second := make(chan int, 1), make(chan int, 1)
	go func() { first <- serve(context.Background()).Code }()
	<-entered // the first request holds the one slot
	go func() { second <- serve(context.Background()).Code }()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	third := serve(ctx)
	var env struct {
		Error ErrorDetail `json:"error"`
	}
	if third.Code != http.StatusServiceUnavailable || json.Unmarshal(third.Body.Bytes(), &env) != nil || env.Error.Code != CodeOverloaded {
		t.Fatalf("waiter whose context expired = %d, body %s; want 503 %s", third.Code, third.Body, CodeOverloaded)
	}
	select {
	case <-entered:
		t.Fatal("a second request ran while the one slot was held")
	default:
	}
	close(release)
	if a, b := <-first, <-second; a != http.StatusOK || b != http.StatusOK {
		t.Fatalf("held and queued requests = %d, %d; want 200 for both", a, b)
	}
	if st := sh.HTTPStats(); st.Status2xx != 2 || st.Status5xx != 1 || st.PeakInFlight != 1 {
		t.Fatalf("http stats = %+v; want 2 2xx, the refusal as one 5xx, peak 1", st)
	}
}

// TestShutdownMidLoad cancels the serve context while clients are still
// hammering the server: in-flight requests must drain, and every ingest
// the server acknowledged must survive in the final snapshot.
func TestShutdownMidLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := New(tieredTestEngine(t, dir), Config{})
	if err != nil {
		t.Fatal(err)
	}
	base, stop := startServer(t, s)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer client.CloseIdleConnections()

	var (
		stopping atomic.Bool // set before cancel; errors after it are expected
		ackedMu  sync.Mutex
		acked    []string
	)
	const clients = 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if stopping.Load() {
					return
				}
				name := fmt.Sprintf("drain-%d-%d", c, i)
				raw, _ := json.Marshal(ingestBody(name))
				resp, err := client.Post(base+"/v1/records", "application/json", bytes.NewReader(raw))
				if err != nil {
					if !stopping.Load() {
						t.Errorf("ingest before shutdown failed: %v", err)
					}
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					if !stopping.Load() {
						t.Errorf("ingest status = %d, body %s", resp.StatusCode, body)
					}
					return
				}
				var ing IngestResponse
				if err := json.Unmarshal(body, &ing); err != nil {
					t.Error(err)
					return
				}
				if ing.Added == 1 {
					ackedMu.Lock()
					acked = append(acked, name)
					ackedMu.Unlock()
				}
			}
		}()
	}

	// Let the load build, then pull the plug mid-flight.
	time.Sleep(100 * time.Millisecond)
	stopping.Store(true)
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	ix, err := core.Open(dir)
	if err != nil {
		t.Fatalf("post-shutdown snapshot is not loadable: %v", err)
	}
	defer ix.Close()
	ackedMu.Lock()
	defer ackedMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("load generated no acknowledged ingests; test is vacuous")
	}
	for _, name := range acked {
		if ix.Get(name) == nil {
			t.Fatalf("acknowledged record %q is missing from the snapshot (%d records, %d acked)",
				name, ix.Len(), len(acked))
		}
	}
}
