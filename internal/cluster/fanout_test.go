package cluster

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sketchengine/internal/server"
)

// TestSearchCover: the first wave's size follows from the fleet size
// and the write quorum alone.
func TestSearchCover(t *testing.T) {
	for _, tt := range []struct{ n, r, want int }{
		{1, 1, 1}, {3, 1, 3}, {3, 2, 2}, {3, 3, 2}, {5, 2, 4}, {5, 3, 4}, {6, 4, 4},
	} {
		c := &Coordinator{cfg: Config{Replication: tt.r}}
		if got := c.searchCover(tt.n); got != tt.want {
			t.Errorf("searchCover(n=%d) at replication %d (quorum %d) = %d, want %d", tt.n, tt.r, c.quorum(), got, tt.want)
		}
	}
}

// postStatus posts body as JSON and returns the status alone; unlike
// postJSON it never calls t.Fatal, so goroutines other than the test's
// own may use it.
func postStatus(url string, body any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Body.Close()
}

func clusterStats(t *testing.T, tc *testCluster) StatsResponse {
	t.Helper()
	_, raw := getBody(t, tc.ts.URL+"/stats")
	var st StatsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSearchRotationFair: the left-out backend moves round-robin, so
// over 3k searches — issued from several goroutines at once — each of
// 3 backends is left out exactly k times.
func TestSearchRotationFair(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	const k, workers = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*k/workers; i++ {
				if status, err := postStatus(tc.ts.URL+"/v1/search", searchBody(5)); err != nil || status != http.StatusOK {
					t.Errorf("search = %d, %v", status, err)
				}
			}
		}()
	}
	wg.Wait()
	st := clusterStats(t, tc)
	if st.Searches != 3*k || st.SearchBackendCalls != 2*3*k || st.Retries != 0 {
		t.Fatalf("searches / backend calls / retries = %d / %d / %d, want %d / %d / 0",
			st.Searches, st.SearchBackendCalls, st.Retries, 3*k, 2*3*k)
	}
	for _, bs := range st.Backends {
		if bs.Requests != 2*k {
			t.Errorf("backend %s served %d searches, want %d (left out %d times of %d)", bs.Addr, bs.Requests, 2*k, k, 3*k)
		}
	}
}

// TestSearchFirstWaveAllFails: with the whole first wave dead, the
// backend it left out must still be asked — 200 and partial, not 502.
func TestSearchFirstWaveAllFails(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	if resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(12)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d, body %s", resp.StatusCode, out)
	}
	list := tc.coord.backendList()
	start := int((tc.coord.searchTurn.Load() + 1) % 3) // the next search's first wave
	tc.backendFor(list[start].addr).stop()
	tc.backendFor(list[(start+1)%3].addr).stop()

	resp, got := postJSON(t, tc.ts.URL+"/v1/search", searchBody(5))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search with a dead first wave = %d, want 200 from the left-out backend; body %s", resp.StatusCode, got)
	}
	var sr server.SearchResponse
	if err := json.Unmarshal(got, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Partial || len(sr.Results) == 0 {
		t.Fatalf("want the survivor's hits flagged partial, got %s", got)
	}
	// Second wave: the survivor's first call and one retry per dead backend.
	if st := clusterStats(t, tc); st.SearchBackendCalls != 5 || st.Retries != 2 {
		t.Errorf("backend calls / retries = %d / %d, want 5 / 2", st.SearchBackendCalls, st.Retries)
	}
}

// TestSearchPartialAtQuorumReplication: at replication 3 a write acks
// on two replicas, so two dark backends can hide it: the answer must be
// flagged even though fewer than Replication backends are missing.
func TestSearchPartialAtQuorumReplication(t *testing.T) {
	tc := newTestCluster(t, 3, Config{Replication: 3})
	late := tc.backends[0]
	late.stop()
	if resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(6)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest acked 2/3 = %d, want 200; body %s", resp.StatusCode, out)
	}
	late.start() // back, without the six records (hints are not drained)
	tc.backends[1].stop()
	tc.backends[2].stop()

	// The answer's mode is the request's, an omitted one "lsh", whichever
	// backend answered.
	for _, mode := range []string{"", "lsh", "exact"} {
		req := searchBody(5)
		req.Mode = mode
		resp, got := postJSON(t, tc.ts.URL+"/v1/search", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search = %d, body %s", resp.StatusCode, got)
		}
		var sr server.SearchResponse
		if err := json.Unmarshal(got, &sr); err != nil {
			t.Fatal(err)
		}
		if !sr.Partial {
			t.Fatalf("both holders of every acked record are down; the answer must say partial: %s", got)
		}
		if want := cmp.Or(mode, "lsh"); sr.Mode != want {
			t.Fatalf("search (mode %q) answered mode %q, want %q", mode, sr.Mode, want)
		}
	}
}

// TestSearchOpenBreakerCostsNothing: a backend behind an open breaker
// is simply the left-out one — no retry wave, no budget token, no
// partial answers, for as long as the rest of the fleet answers.
func TestSearchOpenBreakerCostsNothing(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	if resp, out := postJSON(t, tc.ts.URL+"/v1/records", corpus(12)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d, body %s", resp.StatusCode, out)
	}
	_, want := postJSON(t, tc.ts.URL+"/v1/search", searchBody(5))
	dead := tc.coord.backendList()[1]
	tc.backendFor(dead.addr).stop()
	for i := 0; i < DefaultDownAfter; i++ {
		tc.coord.observeBreaker(dead, false)
	}
	if dead.up() {
		t.Fatal("breaker did not open; test setup broken")
	}
	asked := dead.requests.Load()

	for i := 0; i < 50; i++ {
		resp, got := postJSON(t, tc.ts.URL+"/v1/search", searchBody(5))
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("search %d = %d:\n got:  %s\n want: %s", i, resp.StatusCode, got, want)
		}
	}
	st := clusterStats(t, tc)
	if st.Retries != 0 || st.RetryBudget.Spent != 0 || st.PartialResults != 0 {
		t.Errorf("retries / budget spent / partials = %d / %d / %d, want all 0",
			st.Retries, st.RetryBudget.Spent, st.PartialResults)
	}
	if got := dead.requests.Load(); got != asked {
		t.Errorf("the open-breaker backend was asked %d more times", got-asked)
	}
}

// TestSearchDuringRebalance: the covering set stays a cover while a
// join or a drain is streaming (rings() has a non-nil next). The stream
// is held at its first replicate call; every rotation position must
// then, and again after the commit, answer byte-identically to a single
// node — including for a record written mid-migration.
func TestSearchDuringRebalance(t *testing.T) {
	for _, action := range []string{"join", "drain"} {
		t.Run(action, func(t *testing.T) {
			// Four members; a join adds a fifth, a drain removes the fourth.
			tc := newTestCluster(t, 4, Config{})
			single := tc.spare()
			entered, release := make(chan struct{}), make(chan struct{})
			var once, releaseOnce sync.Once
			unhold := func() { releaseOnce.Do(func() { close(release) }) }
			defer unhold() // a failure mid-hold must not strand the held handlers
			hold := func(_ http.ResponseWriter, r *http.Request) bool {
				if r.URL.Path == "/v1/admin/replicate" {
					once.Do(func() { close(entered) })
					<-release
				}
				return false
			}
			tc.intercept.Store(&hold)
			ingestBoth := func(req server.IngestRequest) {
				t.Helper()
				for _, url := range []string{single.url(), tc.ts.URL} {
					if resp, out := postJSON(t, url+"/v1/records", req); resp.StatusCode != http.StatusOK {
						t.Fatalf("ingest to %s = %d, body %s", url, resp.StatusCode, out)
					}
				}
			}
			assertIdentical := func(when string) {
				t.Helper()
				_, want := postJSON(t, single.url()+"/v1/search", searchBody(8))
				for turn := 0; turn < len(tc.coord.backendList()); turn++ {
					resp, got := postJSON(t, tc.ts.URL+"/v1/search", searchBody(8))
					if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
						t.Fatalf("%s, search %d = %d:\n got:  %s\n want: %s", when, turn, resp.StatusCode, got, want)
					}
				}
			}
			ingestBoth(corpus(20))
			assertIdentical("before the " + action)

			var body any = DrainRequest{Backend: tc.backends[3].addr}
			if action == "join" {
				body = JoinRequest{Backend: tc.spare().addr}
			}
			done := make(chan int, 1)
			go func() {
				status, err := postStatus(tc.ts.URL+"/v1/admin/"+action, body)
				if err != nil {
					t.Error(err)
				}
				done <- status
			}()
			select {
			case <-entered:
			case status := <-done:
				t.Fatalf("%s finished with %d before streaming anything", action, status)
			}
			if _, next := tc.coord.rings(); next == nil {
				t.Fatal("stream is running but rings() reports no migration target")
			}
			assertIdentical("mid-" + action)
			// The query's own text, written mid-migration: it must top every
			// answer from here on, wherever the union placement put it.
			ingestBoth(server.IngestRequest{Records: []server.IngestRecord{{Name: "mid-migration.txt", Data: searchBody(8).Data}}})
			assertIdentical("mid-" + action + " after a write")

			unhold()
			if status := <-done; status != http.StatusOK {
				t.Fatalf("%s = %d, want 200", action, status)
			}
			assertIdentical("after the " + action)
			if st := clusterStats(t, tc); st.Retries != 0 || st.PartialResults != 0 {
				t.Errorf("retries / partials = %d / %d, want 0 / 0", st.Retries, st.PartialResults)
			}
		})
	}
}

// BenchmarkCoordinatorSearch: one LSH hit search through the
// coordinator's handler over the test cluster's 3 loopback backends
// (k=4, 64 slots, WAL-backed) at replication 2, 3000 records of ~2 KiB.
// backend-calls/op is the fan-out width.
func BenchmarkCoordinatorSearch(b *testing.B) {
	tc := newTestCluster(b, 3, Config{})
	coord := tc.coord

	rng := rand.New(rand.NewSource(1))
	doc := func() []string {
		words := make([]string, 300)
		for i := range words {
			words[i] = fmt.Sprintf("w%05d", rng.Intn(50000))
		}
		return words
	}
	const records, batch, queries = 3000, 250, 64
	var bodies [][]byte
	for base := 0; base < records; base += batch {
		var req server.IngestRequest
		for i := base; i < base+batch; i++ {
			words := doc()
			req.Records = append(req.Records, server.IngestRecord{Name: fmt.Sprintf("doc-%04d", i), Data: strings.Join(words, " ")})
			if len(bodies) < queries && i%(records/queries) == 0 {
				// A near-duplicate of an indexed record: a tenth of its words replaced.
				for j := 0; j < len(words); j += 10 {
					words[j] = "edited"
				}
				raw, err := json.Marshal(server.SearchRequest{Name: "q", Data: strings.Join(words, " "), K: 10, Mode: "lsh"})
				if err != nil {
					b.Fatal(err)
				}
				bodies = append(bodies, raw)
			}
		}
		if resp, out := postJSON(b, tc.ts.URL+"/v1/records", req); resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest = %d, body %s", resp.StatusCode, out)
		}
	}

	handler := coord.Handler()
	search := func(i int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", bytes.NewReader(bodies[i%len(bodies)])))
		return rec
	}
	for i := range bodies { // warm the connections, and check the queries do hit
		var sr server.SearchResponse
		if rec := search(i); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &sr) != nil || len(sr.Results) == 0 {
			b.Fatalf("warm-up search %d = %d, body %s; want hits", i, rec.Code, rec.Body)
		}
	}
	calls := coord.metrics.searchBackendCalls.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := search(i); rec.Code != http.StatusOK {
			b.Fatalf("search = %d, body %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(coord.metrics.searchBackendCalls.Load()-calls)/float64(b.N), "backend-calls/op")
}
