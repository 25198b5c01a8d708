package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sketchengine/internal/core"
)

// These tests pin the tombstone lookup contract: once DELETE succeeds,
// GET /v1/records/{name} answers 404 with the not_found envelope — in
// memory, after a WAL-only crash replay, and after a snapshot reload.
// A tombstoned
// record leaking back as 200 would also poison the cluster
// coordinator's first-200-wins lookup path.

func doDelete(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
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

func wantGetNotFound(t *testing.T, client *http.Client, url string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET %s = %d, want 404; body %s", url, resp.StatusCode, out)
	}
	var env struct {
		Error ErrorDetail `json:"error"`
	}
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatalf("404 body is not the error envelope: %s", out)
	}
	if env.Error.Code != CodeNotFound {
		t.Fatalf("404 code = %q, want %q; body %s", env.Error.Code, CodeNotFound, out)
	}
}

func wantGetOK(t *testing.T, client *http.Client, url string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
}

func reopenedServer(t *testing.T, path string) (*Server, *httptest.Server) {
	t.Helper()
	ix, err := core.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngineWithIndex(ix, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
		ix.Close()
	})
	return s, ts
}

func TestTombstonedRecordNotFoundTiered(t *testing.T) {
	dir := t.TempDir()
	eng := tieredTestEngine(t, dir)
	s, err := New(eng, Config{DataDir: dir, SnapshotEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	closed := false
	t.Cleanup(func() {
		if !closed {
			ts.Close()
			_ = s.Close()
		}
	})
	client := ts.Client()

	resp, out := postJSON(t, client, ts.URL+"/v1/records", ingestBody("alpha", "beta", "gamma"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d, body %s", resp.StatusCode, out)
	}
	if resp, out = doDelete(t, client, ts.URL+"/v1/records/gamma"); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d, body %s", resp.StatusCode, out)
	}
	wantGetNotFound(t, client, ts.URL+"/v1/records/gamma")

	// Crash without a snapshot: the delete only exists in the WAL, and
	// replay must reapply the tombstone, not resurrect the record.
	ts.Close()
	if err := eng.Index().Close(); err != nil {
		t.Fatal(err)
	}
	closed = true

	s2, ts2 := reopenedServer(t, dir)
	wantGetNotFound(t, ts2.Client(), ts2.URL+"/v1/records/gamma")
	wantGetOK(t, ts2.Client(), ts2.URL+"/v1/records/alpha")

	// Snapshot the replayed state and reload once more: the tombstone
	// must also survive the manifest/segment path.
	if _, err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	if err := s2.Engine().Index().Close(); err != nil {
		t.Fatal(err)
	}
	_, ts3 := reopenedServer(t, dir)
	wantGetNotFound(t, ts3.Client(), ts3.URL+"/v1/records/gamma")
	wantGetOK(t, ts3.Client(), ts3.URL+"/v1/records/alpha")
}
