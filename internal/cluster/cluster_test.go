package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sketchengine/internal/core"
	"sketchengine/internal/server"
)

// testBackend is one in-process single-node backend: a real
// server.Server behind a real TCP listener, so the coordinator
// exercises its actual HTTP client path.
type testBackend struct {
	srv *server.Server
	ts  *httptest.Server
}

func (b *testBackend) addr() string { return strings.TrimPrefix(b.ts.URL, "http://") }

func newTestBackend(t *testing.T) *testBackend {
	t.Helper()
	return newWrappedBackend(t, func(h http.Handler) http.Handler { return h })
}

// newWrappedBackend is newTestBackend with wrap around the server's
// handler, for tests that hold or count a backend's requests.
func newWrappedBackend(t *testing.T, wrap func(http.Handler) http.Handler) *testBackend {
	t.Helper()
	eng, err := core.NewEngine(core.Options{K: 4, SignatureSize: 64, IndexName: "clustertest", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(eng, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(wrap(srv.Handler()))
	t.Cleanup(func() {
		ts.Close() // idempotent; tests may have killed it already
		_ = srv.Close()
	})
	return &testBackend{srv: srv, ts: ts}
}

// testCluster is n backends and one coordinator over them.
type testCluster struct {
	coord    *Coordinator
	backends []*testBackend
	ts       *httptest.Server // coordinator front end
}

func newTestCluster(t *testing.T, n, replication int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	var addrs []string
	for i := 0; i < n; i++ {
		b := newTestBackend(t)
		tc.backends = append(tc.backends, b)
		addrs = append(addrs, b.addr())
	}
	coord, err := New(Config{
		Backends:       addrs,
		Replication:    replication,
		HealthInterval: -1, // probes are driven by hand in tests
		HintInterval:   -1, // hint drains too
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	tc.ts = httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		tc.ts.Close()
		_ = coord.Close()
	})
	return tc
}

// backendFor maps a ring address back to the test backend.
func (tc *testCluster) backendFor(addr string) *testBackend {
	for _, b := range tc.backends {
		if b.addr() == addr {
			return b
		}
	}
	return nil
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
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

func getBody(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func corpus(n int) server.IngestRequest {
	var req server.IngestRequest
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("rec-%02d.txt", i)
		req.Records = append(req.Records, server.IngestRecord{
			Name: name,
			Data: fmt.Sprintf("shared payload stem for %s with plenty of overlapping shingles", name),
		})
	}
	return req
}

// searchBody uses exact mode: its results depend only on the corpus,
// not on how records scattered into shards or backends, which is what
// makes byte-for-byte comparison against a single node meaningful.
func searchBody(k int) server.SearchRequest {
	return server.SearchRequest{
		Name: "q",
		Data: "shared payload stem for rec-03.txt with plenty of overlapping shingles",
		K:    k,
		Mode: "exact",
	}
}

type errEnvelope struct {
	Error server.ErrorDetail `json:"error"`
}

// TestClusterMatchesSingleNode: the acceptance bar for the merge path —
// a 3-node cluster's search response must be byte-identical to a
// single node holding the same corpus, whichever backend the rotation
// leaves out of the covering set.
func TestClusterMatchesSingleNode(t *testing.T) {
	body := corpus(12)

	single := newTestBackend(t)
	resp, out := postJSON(t, single.ts.URL+"/v1/records", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node ingest status = %d, body %s", resp.StatusCode, out)
	}
	_, want := postJSON(t, single.ts.URL+"/v1/search", searchBody(5))

	tc := newTestCluster(t, 3, 2)
	resp, out = postJSON(t, tc.ts.URL+"/v1/records", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster ingest status = %d, body %s", resp.StatusCode, out)
	}
	var ing server.IngestResponse
	if err := json.Unmarshal(out, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Received != 12 || ing.Added != 12 || ing.Skipped != 0 {
		t.Fatalf("cluster ingest = %+v, want 12 received/added", ing)
	}

	for turn := 0; turn < len(tc.backends); turn++ {
		resp, got := postJSON(t, tc.ts.URL+"/v1/search", searchBody(5))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cluster search status = %d, body %s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cluster search %d differs from single node:\n cluster: %s\n single:  %s", turn, got, want)
		}
	}

	// Every backend must actually hold records: the ring spread the
	// corpus, it did not pile onto one node.
	for _, b := range tc.backends {
		if n := b.srv.Engine().Index().Len(); n == 0 {
			t.Errorf("backend %s holds no records; ring did not spread the corpus", b.addr())
		}
	}
}

// TestClusterKillOneBackend: with replication=2, any single backend
// death must leave the result set complete and unflagged — every
// record still has a live replica, and the retry/degrade logic must
// recognize that.
func TestClusterKillOneBackend(t *testing.T) {
	for kill := 0; kill < 3; kill++ {
		t.Run(fmt.Sprintf("kill=%d", kill), func(t *testing.T) {
			tc := newTestCluster(t, 3, 2)
			resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(12))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest status = %d, body %s", resp.StatusCode, out)
			}
			_, want := postJSON(t, tc.ts.URL+"/v1/search", searchBody(5))

			tc.backends[kill].ts.Close()

			// One rotation: the dead backend is in the first wave of two of
			// these searches (its breaker needs three failures to open) and
			// the left-out one of the third.
			for turn := 0; turn < 3; turn++ {
				resp, got := postJSON(t, tc.ts.URL+"/v1/search", searchBody(5))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("post-kill search status = %d, body %s", resp.StatusCode, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("post-kill search differs:\n before: %s\n after:  %s", want, got)
				}
				if bytes.Contains(got, []byte(`"partial"`)) {
					t.Fatalf("one dead backend of three with replication=2 must not degrade to partial: %s", got)
				}
			}

			// The dead backend was retried before those responses settled.
			_, stats := getBody(t, tc.ts.URL+"/stats")
			var st StatsResponse
			if err := json.Unmarshal(stats, &st); err != nil {
				t.Fatal(err)
			}
			if st.Retries == 0 {
				t.Errorf("stats report no retries after a backend death: %s", stats)
			}
		})
	}
}

// TestClusterKillTwoBackendsPartial: two dead backends of three can
// cover a whole replica set at replication=2, so the response must
// degrade to "partial": true — still HTTP 200, never an error.
func TestClusterKillTwoBackendsPartial(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(12))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, out)
	}
	tc.backends[0].ts.Close()
	tc.backends[1].ts.Close()

	resp, got := postJSON(t, tc.ts.URL+"/v1/search", searchBody(5))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search with two dead backends = %d, want 200 partial; body %s", resp.StatusCode, got)
	}
	var sr server.SearchResponse
	if err := json.Unmarshal(got, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Partial {
		t.Fatalf("two dead backends sharing replica sets must flag partial: %s", got)
	}
	if len(sr.Results) == 0 {
		t.Fatalf("partial search should still return the surviving backend's hits: %s", got)
	}

	// All three dead: nothing to answer from, so the coordinator says so.
	tc.backends[2].ts.Close()
	resp, got = postJSON(t, tc.ts.URL+"/v1/search", searchBody(5))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("search with no live backends = %d, want 502; body %s", resp.StatusCode, got)
	}
	var env errEnvelope
	if err := json.Unmarshal(got, &env); err != nil || env.Error.Code != CodeBackendDown {
		t.Fatalf("want backend_down envelope, got %s", got)
	}
}

// TestClusterIngestQuorumFailure: with one backend dead at
// replication=2, records whose replica set includes it cannot reach
// the majority quorum and must be reported individually; the rest are
// acked and durable.
func TestClusterIngestQuorumFailure(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	dead := tc.backends[2]
	dead.ts.Close()

	body := corpus(16)
	hasDead := make(map[string]bool)
	withDead, without := 0, 0
	for _, rec := range body.Records {
		for _, addr := range tc.coord.Ring().Replicas(rec.Name) {
			if addr == dead.addr() {
				hasDead[rec.Name] = true
			}
		}
		if hasDead[rec.Name] {
			withDead++
		} else {
			without++
		}
	}
	if withDead == 0 || without == 0 {
		t.Skipf("corpus does not split across the dead backend (%d with, %d without)", withDead, without)
	}

	resp, out := postJSON(t, tc.ts.URL+"/v1/records", body)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("ingest with a dead replica = %d, want 502; body %s", resp.StatusCode, out)
	}
	var env errEnvelope
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeQuorumFailed {
		t.Fatalf("envelope code = %q, want %q; body %s", env.Error.Code, CodeQuorumFailed, out)
	}
	failed := make(map[string]bool)
	for _, re := range env.Error.Records {
		failed[re.Name] = true
		if re.Code != CodeBackendDown {
			t.Errorf("record %s failure code = %q, want %q", re.Name, re.Code, CodeBackendDown)
		}
	}
	for _, rec := range body.Records {
		if hasDead[rec.Name] != failed[rec.Name] {
			t.Errorf("record %s: replica set includes dead backend = %v but reported failed = %v",
				rec.Name, hasDead[rec.Name], failed[rec.Name])
		}
	}

	// Acked records are durable on both replicas and searchable: one
	// dead backend cannot degrade the search, so the acked records all
	// surface through a full (non-partial) scatter.
	resp, got := postJSON(t, tc.ts.URL+"/v1/search", server.SearchRequest{
		Name: "q", Data: body.Records[0].Data, K: 32, Mode: "exact",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-failure search status = %d, body %s", resp.StatusCode, got)
	}
	var sr server.SearchResponse
	if err := json.Unmarshal(got, &sr); err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool)
	for _, hit := range sr.Results {
		found[hit.Ref] = true
	}
	for _, rec := range body.Records {
		if !hasDead[rec.Name] && !found[rec.Name] {
			t.Errorf("acked record %s missing from search results", rec.Name)
		}
	}
}

// TestClusterDeleteAndGet: deletes route to the replica set with the
// same quorum rule as writes, and lookups never trust one replica's
// 404.
func TestClusterDeleteAndGet(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(6))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, out)
	}

	resp, out = getBody(t, tc.ts.URL+"/v1/records/rec-01.txt")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), `"name":"rec-01.txt"`) {
		t.Fatalf("get = %d, body %s", resp.StatusCode, out)
	}

	req, _ := http.NewRequest("DELETE", tc.ts.URL+"/v1/records/rec-01.txt", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dout, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || !strings.Contains(string(dout), `"deleted":"rec-01.txt"`) {
		t.Fatalf("delete = %d, body %s", dresp.StatusCode, dout)
	}

	// Gone from every replica: the lookup 404s with the envelope.
	resp, out = getBody(t, tc.ts.URL+"/v1/records/rec-01.txt")
	var env errEnvelope
	if resp.StatusCode != http.StatusNotFound || json.Unmarshal(out, &env) != nil || env.Error.Code != server.CodeNotFound {
		t.Fatalf("get after delete = %d, body %s, want 404 not_found", resp.StatusCode, out)
	}

	// A second delete is a clean unanimous 404.
	req, _ = http.NewRequest("DELETE", tc.ts.URL+"/v1/records/rec-01.txt", nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dout, _ = io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound || !strings.Contains(string(dout), server.CodeNotFound) {
		t.Fatalf("second delete = %d, body %s, want 404 not_found", dresp.StatusCode, dout)
	}
}

// TestHealthHysteresis: single probe outcomes must not flap the ring;
// the configured consecutive-failure and -success widths must.
func TestHealthHysteresis(t *testing.T) {
	coord, err := New(Config{
		Backends:       []string{"h1:1", "h2:1", "h3:1"},
		Replication:    2,
		HealthInterval: -1,
		DownAfter:      3,
		UpAfter:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	b := coord.backends[0]
	if !b.up() {
		t.Fatal("backends must start optimistically up")
	}
	coord.observeBreaker(b, false)
	coord.observeBreaker(b, false)
	if !b.up() {
		t.Fatal("2 consecutive failures with DownAfter=3 must not mark down")
	}
	coord.observeBreaker(b, false)
	if b.up() {
		t.Fatal("3rd consecutive failure must mark down")
	}
	coord.observeBreaker(b, true)
	if b.up() {
		t.Fatal("1 success with UpAfter=2 must not mark up")
	}
	coord.observeBreaker(b, false) // failure resets the success streak
	coord.observeBreaker(b, true)
	if b.up() {
		t.Fatal("success streak must reset on failure")
	}
	coord.observeBreaker(b, true)
	if !b.up() {
		t.Fatal("2 consecutive successes must mark up")
	}
	if got := b.transitions(); got != 2 {
		t.Fatalf("transitions = %d, want 2 (down, up)", got)
	}

	// /healthz degrades while any backend is down.
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	coord.observeBreaker(b, false)
	coord.observeBreaker(b, false)
	coord.observeBreaker(b, false)
	_, out := getBody(t, ts.URL+"/healthz")
	if !strings.Contains(string(out), `"status":"degraded"`) {
		t.Fatalf("healthz with a down backend = %s, want degraded", out)
	}
}

// TestClusterObservability: /stats and /metrics expose the per-backend
// state, fan-out histograms, and ring occupancy the tentpole promises.
func TestClusterObservability(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(8))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, out)
	}
	if resp, out = postJSON(t, tc.ts.URL+"/v1/search", searchBody(3)); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d, body %s", resp.StatusCode, out)
	}

	_, stats := getBody(t, tc.ts.URL+"/stats")
	var st StatsResponse
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Replication != 2 || st.WriteQuorum != 2 {
		t.Errorf("stats replication/quorum = %d/%d, want 2/2", st.Replication, st.WriteQuorum)
	}
	if st.Searches != 1 || st.SearchBackendCalls != 2 { // the cover of 3 backends at quorum 2
		t.Errorf("searches / search_backend_calls = %d / %d, want 1 / 2", st.Searches, st.SearchBackendCalls)
	}
	if st.RecordsRouted != 16 { // 8 records x 2 replicas
		t.Errorf("records_routed = %d, want 16", st.RecordsRouted)
	}
	if len(st.Backends) != 3 {
		t.Fatalf("stats list %d backends, want 3", len(st.Backends))
	}
	var routed int64
	for _, bs := range st.Backends {
		if !bs.Up {
			t.Errorf("backend %s reported down in a healthy cluster", bs.Addr)
		}
		routed += bs.RoutedRecords
	}
	if routed != 16 {
		t.Errorf("per-backend routed records sum to %d, want 16", routed)
	}

	_, metrics := getBody(t, tc.ts.URL+"/metrics")
	for _, want := range []string{
		"sketchengine_cluster_backend_up{backend=",
		"sketchengine_cluster_ring_records{backend=",
		"sketchengine_cluster_fanout_duration_seconds_bucket{endpoint=\"search\"",
		"sketchengine_cluster_fanout_duration_seconds_count{endpoint=\"ingest\"",
		"sketchengine_cluster_search_backend_calls_total 2\n",
		"sketchengine_cluster_retries_total",
		"sketchengine_cluster_partial_results_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
