package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode"
	"unicode/utf16"

	"sketchengine/internal/core"
	"sketchengine/internal/fault"
	"sketchengine/internal/server"
)

// testCluster is the package's one cluster bring-up: n backends, each a
// real server.Server over a WAL-backed directory index behind a real
// TCP listener, and one coordinator in front of them. Backends keep
// their address across stop, crash and restart, so the coordinator
// sees one node go away and come back, as it would in the field.
type testCluster struct {
	t        testing.TB
	cfg      Config
	coord    *Coordinator
	ts       *httptest.Server // coordinator front end
	backends []*testBackend   // ring members at bring-up, then joiners
	// intercept, when set, sees every backend request first; it holds
	// one back, or answers it itself by returning true.
	intercept atomic.Pointer[func(http.ResponseWriter, *http.Request) bool]
}

// testBackend is one backend node. srv is nil from a crash to the next
// start; hs is nil while the node is not listening. Every request holds
// gate shared, so stop can wait out the ones already in.
type testBackend struct {
	tc   *testCluster
	dir  string
	addr string
	srv  *server.Server
	hs   *http.Server
	gate sync.RWMutex
}

// newTestCluster starts n backends and a coordinator over them with
// cfg. Probes and hint drains are driven by hand unless cfg sets them.
func newTestCluster(t testing.TB, n int, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	for i := 0; i < n; i++ {
		b := tc.spare()
		tc.backends = append(tc.backends, b)
		cfg.Backends = append(cfg.Backends, b.addr)
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1
	}
	if cfg.HintInterval == 0 {
		cfg.HintInterval = -1
	}
	tc.cfg = cfg
	tc.startCoordinator()
	return tc
}

// startCoordinator (re)starts the coordinator over the current ring,
// with the same hints directory.
func (tc *testCluster) startCoordinator() {
	if tc.coord != nil {
		tc.cfg.Backends = tc.coord.Ring().Backends()
		tc.ts.Close()
		_ = tc.coord.Close()
	}
	coord, err := New(tc.cfg)
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.coord, tc.ts = coord, httptest.NewServer(coord.Handler())
	ts := tc.ts
	tc.t.Cleanup(func() {
		fault.Disable() // never leak an armed plan past a failed test
		ts.Close()
		_ = coord.Close()
	})
}

// spare starts a backend that is not in the ring: a joiner, or a
// single-node reference.
func (tc *testCluster) spare() *testBackend {
	dir := tc.t.TempDir()
	eng, err := core.NewEngine(core.Options{K: 4, SignatureSize: 64, IndexName: "clustertest", Shards: 4,
		Bits: 8, Tiered: true, DataDir: dir, SegmentRows: 8})
	if err != nil {
		tc.t.Fatal(err)
	}
	b := &testBackend{tc: tc, dir: dir}
	// No snapshot but the first: every ack rests on the WAL.
	if b.srv, err = server.New(eng, server.Config{DataDir: dir}); err != nil {
		tc.t.Fatal(err)
	}
	// A port below Linux's ephemeral range (32768 up), so no outgoing
	// connection or port-0 listener takes it while b is down.
	for b.addr == "" {
		if lis, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", 20000+rand.Intn(12000))); err == nil {
			b.addr = lis.Addr().String()
			_ = lis.Close()
		}
	}
	b.start()
	tc.t.Cleanup(func() {
		if b.stop(); b.srv != nil {
			_ = b.index().Close()
		}
	})
	return b
}

func (b *testBackend) url() string { return "http://" + b.addr }

func (b *testBackend) index() *core.Index { return b.srv.Engine().Index() }

// start serves b on its address, reopening its directory first if it
// crashed.
func (b *testBackend) start() {
	t := b.tc.t
	if b.srv == nil {
		ix, err := core.Open(b.dir)
		if err != nil {
			t.Fatalf("reopen %s after a crash: %v", b.addr, err)
		}
		eng, err := core.NewEngineWithIndex(ix, 0)
		if err == nil {
			b.srv, err = server.New(eng, server.Config{DataDir: b.dir})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var lis net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if lis, err = net.Listen("tcp", b.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", b.addr, err)
	}
	srv, hs := b.srv, &http.Server{}
	hs.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.gate.RLock()
		defer b.gate.RUnlock()
		if b.hs != hs { // stopped between reading the request and here
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		if f := b.tc.intercept.Load(); f == nil || !(*f)(w, r) {
			srv.Handler().ServeHTTP(w, r)
		}
	})
	b.gate.Lock()
	b.hs = hs
	b.gate.Unlock()
	go func() { _ = hs.Serve(lis) }()
}

// stop closes b's listener and connections and waits out the requests
// already in; the engine stays as it is.
func (b *testBackend) stop() {
	if b.hs != nil {
		_ = b.hs.Close()
		b.gate.Lock()
		b.hs = nil
		b.gate.Unlock()
	}
}

// crash stops b and closes its index with no snapshot: what survives is
// what its WAL holds, and start reopens it from there.
func (b *testBackend) crash() {
	b.stop()
	if err := b.index().Close(); err != nil {
		b.tc.t.Fatal(err)
	}
	b.srv = nil
}

// backendFor maps a ring address back to the test backend.
func (tc *testCluster) backendFor(addr string) *testBackend {
	for _, b := range tc.backends {
		if b.addr == addr {
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
	return send(t, http.MethodPost, url, bytes.NewReader(raw))
}

func getBody(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	return send(t, http.MethodGet, url, nil)
}

func deleteBody(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	return send(t, http.MethodDelete, url, nil)
}

// send makes one request and reads the whole response.
func send(t testing.TB, method, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
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
	// Ingested by hand to see the coordinator's counts; the model is told.
	x := newExecutor(t, history{r: 2})
	var req server.IngestRequest
	for i := range 12 {
		*x.fact(i) = fact{live, payload(i, 0)}
		req.Records = append(req.Records, server.IngestRecord{Name: x.name(i), Data: payload(i, 0)})
	}
	var ing server.IngestResponse
	if resp, out := postJSON(t, x.tc.ts.URL+"/v1/records", req); resp.StatusCode != http.StatusOK ||
		json.Unmarshal(out, &ing) != nil || ing.Received != 12 || ing.Added != 12 || ing.Skipped != 0 {
		t.Fatalf("cluster ingest = %d, body %s; want 12 received and added", resp.StatusCode, out)
	}
	if err := x.matchesSingleNode(); err != nil {
		t.Fatal(err)
	}
	// Every backend must actually hold records: the ring spread the
	// corpus, it did not pile onto one node.
	for _, b := range x.tc.backends {
		if n := b.index().Len(); n == 0 {
			t.Errorf("backend %s holds no records; ring did not spread the corpus", b.addr)
		}
	}
}

// TestClusterMatchesSingleNodeHostileNames holds the same bar for names
// the search hop must escape: HTML characters, UTF-8, U+2028, a quote and
// a backslash, a tab, a rune outside the BMP. First with the answers as
// the backends write them, which the coordinator reads in one pass; then
// with every answer respelled into a shape that pass declines — keys
// reordered, an unknown key, every non-ASCII rune of a ref or query as a
// \u escape, surrogate pairs included — which encoding/json reads.
func TestClusterMatchesSingleNodeHostileNames(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	ref := tc.spare()
	var req server.IngestRequest
	for i, name := range []string{"<a&b>", "café", "line\u2028sep", `"q\`, "a\ttab", "grin \U0001F600"} {
		req.Records = append(req.Records, server.IngestRecord{Name: name,
			Data: fmt.Sprintf("shared payload stem %d for a record with plenty of overlapping shingles", i)})
	}
	for _, url := range []string{tc.ts.URL, ref.url()} {
		if resp, out := postJSON(t, url+"/v1/records", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest into %s = %d, body %s", url, resp.StatusCode, out)
		}
	}
	query := server.SearchRequest{Name: `<q&"é">` + "\u2028\t", Data: "shared payload stem for a record with plenty of overlapping shingles", Mode: "exact"}
	_, want := postJSON(t, ref.url()+"/v1/search", query)
	var sr server.SearchResponse
	if json.Unmarshal(want, &sr) != nil || len(sr.Results) != len(req.Records) {
		t.Fatalf("single node answered %s; want every record", want)
	}
	matches := func(stage string) {
		t.Helper()
		for turn := 0; turn < 3; turn++ { // each backend left out once
			if resp, got := postJSON(t, tc.ts.URL+"/v1/search", query); resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("%s, search %d = %d, differs from a single node:\n cluster: %s\n single:  %s", stage, turn, resp.StatusCode, got, want)
			}
		}
	}
	matches("answers as written")

	respell := func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path != "/v1/search" {
			return false
		}
		rec := httptest.NewRecorder()
		tc.backendFor(r.Host).srv.Handler().ServeHTTP(rec, r)
		var sr server.SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil || rec.Code != http.StatusOK {
			t.Errorf("backend answered %d %s", rec.Code, rec.Body)
			w.WriteHeader(http.StatusInternalServerError)
			return true
		}
		var b strings.Builder
		b.WriteString(`{"unknown":[null],"results":[`)
		for i, h := range sr.Results {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"distance":%v,"similarity":%v,"ref":%s,"rank":%d}`, h.Distance, h.Similarity, escapeAll(h.Ref), h.Rank)
		}
		fmt.Fprintf(&b, `],"mode":%q,"query":%s}`, sr.Mode, escapeAll(sr.Query))
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, b.String())
		return true
	}
	tc.intercept.Store(&respell)
	matches("answers respelled")
}

// escapeAll spells s as a JSON string whose every byte outside printable
// ASCII, quote and backslash included, is a \u escape: a rune outside the
// BMP a surrogate pair.
func escapeAll(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r1, r2 := utf16.EncodeRune(r); {
		case r1 != unicode.ReplacementChar:
			fmt.Fprintf(&b, `\u%04x\u%04x`, r1, r2)
		case r < 0x20 || r >= 0x7f || r == '"' || r == '\\':
			fmt.Fprintf(&b, `\u%04x`, r)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// TestClusterKillOneBackend: with replication=2, any single backend
// death must leave the result set complete and unflagged — every
// record still has a live replica, and the retry/degrade logic must
// recognize that.
func TestClusterKillOneBackend(t *testing.T) {
	for kill := 0; kill < 3; kill++ {
		t.Run(fmt.Sprintf("kill=%d", kill), func(t *testing.T) {
			tc := newTestCluster(t, 3, Config{})
			if resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(12)); resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest status = %d, body %s", resp.StatusCode, out)
			}
			_, want := postJSON(t, tc.ts.URL+"/v1/search", searchBody(5))
			tc.backends[kill].stop()
			// One rotation: the dead backend is in the first wave of two of
			// these searches (its breaker needs three failures to open) and
			// the left-out one of the third. Each answer must be the one from
			// before, which was not partial.
			for turn := 0; turn < 3; turn++ {
				if resp, got := postJSON(t, tc.ts.URL+"/v1/search", searchBody(5)); resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
					t.Fatalf("post-kill search = %d, differs:\n before: %s\n after:  %s", resp.StatusCode, want, got)
				}
			}
			// The dead backend was retried before those responses settled.
			if st := clusterStats(t, tc); st.Retries == 0 {
				t.Errorf("stats report no retries after a backend death: %+v", st)
			}
		})
	}
}

// TestClusterKillTwoBackendsPartial: two dead backends of three can
// cover a whole replica set at replication=2, so the response must
// degrade to "partial": true — still HTTP 200, never an error.
func TestClusterKillTwoBackendsPartial(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	if resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(12)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, out)
	}
	tc.backends[0].stop()
	tc.backends[1].stop()
	resp, got := postJSON(t, tc.ts.URL+"/v1/search", searchBody(5))
	var sr server.SearchResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(got, &sr) != nil || !sr.Partial || len(sr.Results) == 0 {
		t.Fatalf("search with two dead backends = %d, body %s; want 200, partial, with the survivor's hits", resp.StatusCode, got)
	}
	// All three dead: nothing to answer from, so the coordinator says so.
	tc.backends[2].stop()
	resp, got = postJSON(t, tc.ts.URL+"/v1/search", searchBody(5))
	var env errEnvelope
	if resp.StatusCode != http.StatusBadGateway || json.Unmarshal(got, &env) != nil || env.Error.Code != CodeBackendDown {
		t.Fatalf("search with no live backends = %d, body %s; want 502 backend_down", resp.StatusCode, got)
	}
}

// TestClusterDeleteAndGet: deletes route to the replica set with the
// same quorum rule as writes, and lookups never trust one replica's
// 404.
func TestClusterDeleteAndGet(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	if resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(6)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, out)
	}
	// A hit, the delete, then gone from every replica: the lookup 404s
	// with the envelope, and a second delete is a clean unanimous 404.
	url := tc.ts.URL + "/v1/records/rec-01.txt"
	for i, step := range []struct {
		do     func(testing.TB, string) (*http.Response, []byte)
		status int
		body   string
	}{
		{getBody, http.StatusOK, `"name":"rec-01.txt"`},
		{deleteBody, http.StatusOK, `"deleted":"rec-01.txt"`},
		{getBody, http.StatusNotFound, `"code":"not_found"`},
		{deleteBody, http.StatusNotFound, `"code":"not_found"`},
	} {
		if resp, out := step.do(t, url); resp.StatusCode != step.status || !strings.Contains(string(out), step.body) {
			t.Fatalf("step %d = %d, body %s; want %d with %s", i, resp.StatusCode, out, step.status, step.body)
		}
	}
}

// TestWriteToDepartedBackend: a drain commit or a failed join's rollback
// can remove an address from the fleet between a write's ring snapshot
// and its backend lookup. The write must count that replica as a missed
// ack, not dereference a nil backend.
func TestWriteToDepartedBackend(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	const ghost = "127.0.0.1:1" // placed on by the ring, registered nowhere
	next, err := NewRing(append(slices.Clone(tc.coord.Ring().Backends()), ghost), 2)
	if err != nil {
		t.Fatal(err)
	}
	name := ""
	for i := 0; name == ""; i++ {
		if n := fmt.Sprintf("rec-%02d.txt", i); slices.Contains(next.Replicas(n), ghost) {
			name = n
		}
	}
	tc.coord.mu.Lock()
	tc.coord.next = next
	tc.coord.mu.Unlock()
	req := server.IngestRequest{Records: []server.IngestRecord{{Name: name, Data: "a record whose target ring names a departed backend"}}}
	var ing server.IngestResponse
	if resp, out := postJSON(t, tc.ts.URL+"/v1/records", req); resp.StatusCode != http.StatusOK ||
		json.Unmarshal(out, &ing) != nil || ing.Added != 1 {
		t.Fatalf("ingest = %d, body %s; want 200 with the record added on its live replicas", resp.StatusCode, out)
	}
	if resp, out := deleteBody(t, tc.ts.URL+"/v1/records/"+name); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d, body %s; want 200 from its live replicas", resp.StatusCode, out)
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
	tc := newTestCluster(t, 3, Config{})
	resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(8))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, out)
	}
	if resp, out = postJSON(t, tc.ts.URL+"/v1/search", searchBody(3)); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d, body %s", resp.StatusCode, out)
	}

	st := clusterStats(t, tc)
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
