package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sketchengine/internal/core"
)

// ingestOne adds a single record through the HTTP API and fails the
// test on anything but a 200.
func ingestOne(t *testing.T, client *http.Client, url, name, data string) {
	t.Helper()
	resp, body := postJSON(t, client, url+"/v1/records", IngestRequest{
		Records: []IngestRecord{{Name: name, Data: data}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest %s: status %d, body %s", name, resp.StatusCode, body)
	}
}

// TestErrorEnvelope: every error response — handler-written or emitted
// by the routing layer itself — carries the same JSON envelope with a
// machine-readable code.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()

	check := func(t *testing.T, resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, wantStatus, body)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("Content-Type = %q, want application/json (body %s)", ct, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("body %q is not the error envelope: %v", body, err)
		}
		if eb.Error.Code != wantCode || eb.Error.Message == "" {
			t.Fatalf("envelope = %+v, want code %q with a message", eb.Error, wantCode)
		}
	}

	// The mux's own 404: an unknown path.
	resp, err := client.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	check(t, resp, http.StatusNotFound, CodeNotFound)

	// The mux's own 405: wrong method on a typed route.
	resp, err = client.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	check(t, resp, http.StatusMethodNotAllowed, CodeMethodNotAllowed)

	// A handler-written error keeps its specific code.
	resp, err = client.Post(ts.URL+"/v1/search", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	check(t, resp, http.StatusBadRequest, CodeBadRequest)

	resp, err = client.Get(ts.URL + "/v1/records/no-such-record")
	if err != nil {
		t.Fatal(err)
	}
	check(t, resp, http.StatusNotFound, CodeNotFound)
}

// TestDeleteEndpoint: DELETE /v1/records/{name} removes the record,
// 404s on the second try, and the record stops appearing in searches.
func TestDeleteEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()
	ingestOne(t, client, ts.URL, "keep", "the payload that stays in the index")
	ingestOne(t, client, ts.URL, "doomed", "the payload that is about to go away")

	del := func(name string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/records/"+name, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	resp, body := del("doomed")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d, body %s", resp.StatusCode, body)
	}
	var dr DeleteResponse
	if err := json.Unmarshal(body, &dr); err != nil || dr.Deleted != "doomed" {
		t.Fatalf("delete body %s: %v", body, err)
	}

	// Gone from GET and from a second DELETE.
	getResp, err := client.Get(ts.URL + "/v1/records/doomed")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after delete = %d, want 404", getResp.StatusCode)
	}
	if resp, _ := del("doomed"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete = %d, want 404", resp.StatusCode)
	}

	// Gone from search, even when queried with its own payload.
	resp, body = postJSON(t, client, ts.URL+"/v1/search", SearchRequest{
		Name: "q", Data: "the payload that is about to go away", K: 10,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	if strings.Contains(string(body), `"doomed"`) {
		t.Fatalf("deleted record in search results: %s", body)
	}
}

// TestMetricsEndpoint: GET /metrics serves Prometheus text with the
// request histograms and counters.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()
	ingestOne(t, client, ts.URL, "m1", "some payload for the metrics test")
	if resp, _ := postJSON(t, client, ts.URL+"/v1/search", SearchRequest{Name: "q", Data: "some payload", K: 5}); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE sketchengine_requests_total counter",
		"sketchengine_searches_total 1",
		"sketchengine_records_added_total 1",
		"sketchengine_records 1",
		`sketchengine_responses_total{class="2xx"}`,
		`sketchengine_http_request_duration_seconds_bucket{endpoint="ingest",le="+Inf"} 1`,
		`sketchengine_http_request_duration_seconds_count{endpoint="search"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestServerInitialSnapshot: a tiered server with an empty data dir
// commits the manifest (and thereby attaches the WALs) inside New,
// before it can acknowledge any write.
func TestServerInitialSnapshot(t *testing.T) {
	dir := t.TempDir()
	eng, err := core.NewEngine(core.Options{
		IndexName: "boot", Bits: 8, Tiered: true, DataDir: dir, SegmentRows: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(eng, Config{DataDir: dir, SnapshotEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		eng.Index().Close()
	}()
	// The manifest exists and the WALs are live before any request.
	if ws := eng.Index().WAL(); ws == nil {
		t.Fatal("WALs not attached after New")
	}
}
