package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sketchengine/internal/core"
)

func tieredTestEngine(t *testing.T, dir string) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.Options{
		K: 4, SignatureSize: 64, IndexName: "tieredsrv", Shards: 4,
		Bits: 8, Tiered: true, DataDir: dir, SegmentRows: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Index().Close() })
	return eng
}

// TestTieredSnapshotLifecycle: a server over a tiered engine snapshots
// through SaveDir — the first snapshot materializes the manifest,
// ingest survives Close, and the committed directory reloads with every
// acknowledged record.
func TestTieredSnapshotLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := New(tieredTestEngine(t, dir), Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/records",
		ingestBody("alpha", "beta", "gamma", "delta"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, body)
	}

	// /stats surfaces the tier: the prefilter width and resident/mapped
	// byte split ride along inside the engine block.
	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var st struct {
		Engine struct {
			Tier *core.TierStats `json:"tier"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats body %s: %v", body, err)
	}
	if st.Engine.Tier == nil || st.Engine.Tier.PrefilterBits != 4 {
		t.Fatalf("stats tier = %+v, want a 4-bit prefilter block", st.Engine.Tier)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, core.ManifestFile)); err != nil {
		t.Fatalf("shutdown snapshot wrote no manifest: %v", err)
	}
	ix, err := core.Open(dir)
	if err != nil {
		t.Fatalf("Open after shutdown: %v", err)
	}
	defer ix.Close()
	if ix.Len() != 4 || ix.Get("delta") == nil {
		t.Fatalf("reloaded tiered index: len=%d", ix.Len())
	}
}

// TestTieredConfigValidation: DataDir must describe the engine it is
// paired with — an in-memory engine or a mismatched directory is a
// configuration bug New refuses.
func TestTieredConfigValidation(t *testing.T) {
	if _, err := New(testEngine(t), Config{DataDir: t.TempDir()}); err == nil {
		t.Fatal("New accepted DataDir on a non-tiered engine")
	}
	dir := t.TempDir()
	if _, err := New(tieredTestEngine(t, dir), Config{DataDir: t.TempDir()}); err == nil {
		t.Fatal("New accepted a DataDir that is not the index's data directory")
	}
	s, err := New(tieredTestEngine(t, dir), Config{DataDir: dir})
	if err != nil {
		t.Fatalf("matching DataDir rejected: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryEngineIsDurableWithoutConfigDataDir: the snapshot
// directory and the WAL attach are derived from the index, not from
// Config.DataDir, so a directory engine served with an empty Config
// still fsyncs every acked write to a WAL — what is on disk at the
// moment of the ack, before any snapshot, already holds the record.
func TestDirectoryEngineIsDurableWithoutConfigDataDir(t *testing.T) {
	dir := t.TempDir()
	s, err := New(tieredTestEngine(t, dir), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/records", ingestBody("alpha", "beta"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, body)
	}
	// The disk as a SIGKILL right after the ack would leave it.
	crashed := filepath.Join(t.TempDir(), "crashed")
	if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	ix, err := core.Open(crashed)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer ix.Close()
	if !ix.Has("alpha") || !ix.Has("beta") {
		t.Fatalf("acked records lost in the crash: reopened index holds %d", ix.Len())
	}
	if w := ix.WAL(); w == nil || w.ReplayedFrames != 2 {
		t.Fatalf("reopen replayed %+v, want the 2 acked adds from the WAL", w)
	}
}

// TestMixedWritersSurviveCrash: ingest, replicate and delete share one
// commit point, so under 16 concurrent writers mixing all three (and
// single- and 8-record requests) every 200 must already be on disk: the
// directory as a SIGKILL would leave it, with no snapshot after the
// first, reopens with every acked add present and every acked delete
// absent.
func TestMixedWritersSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	eng := tieredTestEngine(t, dir)
	s, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	do := func(method, path string, body any) int {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
		return rec.Code
	}

	const writers, rounds = 16, 6
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		added, gone []string
	)
	acked := func(code int, what string) bool {
		if code != http.StatusOK {
			t.Errorf("%s = %d", what, code)
		}
		return code == http.StatusOK
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var names []string
				for j := 0; j < 1+7*(i%2); j++ { // 1 record, then 8, alternating
					names = append(names, fmt.Sprintf("w%d-r%d-%d", g, i, j))
				}
				var ok bool
				if (g+i)%3 == 0 {
					var req ReplicateRequest
					for _, n := range names {
						req.Records = append(req.Records, replicaOf(eng, n))
					}
					ok = acked(do(http.MethodPost, "/v1/admin/replicate", req), "replicate")
				} else {
					ok = acked(do(http.MethodPost, "/v1/records", ingestBody(names...)), "ingest")
				}
				if !ok {
					return
				}
				// Every other round, delete the first record just added.
				if i%2 == 1 && acked(do(http.MethodDelete, "/v1/records/"+names[0], nil), "delete") {
					mu.Lock()
					gone = append(gone, names[0])
					mu.Unlock()
					names = names[1:]
				}
				mu.Lock()
				added = append(added, names...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	crashed := filepath.Join(t.TempDir(), "crashed")
	if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	ix, err := core.Open(crashed)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer ix.Close()
	if len(added) == 0 || len(gone) == 0 {
		t.Fatalf("vacuous: %d acked adds, %d acked deletes", len(added), len(gone))
	}
	for _, n := range added {
		if !ix.Has(n) {
			t.Errorf("acked add %s lost in the crash", n)
		}
	}
	for _, n := range gone {
		if ix.Has(n) {
			t.Errorf("acked delete of %s undone by the crash", n)
		}
	}
	if ix.Len() != len(added) {
		t.Errorf("reopened index holds %d records, want the %d acked", ix.Len(), len(added))
	}
}
