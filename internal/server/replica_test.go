package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sketchengine/internal/core"
	"sketchengine/internal/fault"
)

func getBody(t testing.TB, client *http.Client, url string) (*http.Response, []byte) {
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
	return resp, out
}

// replicaOf sketches a payload derived from name on eng and returns it in
// the replication wire form.
func replicaOf(eng *core.Engine, name string) ReplicaRecord {
	sk := eng.Sketcher().Sketch(core.Record{Name: name, Data: []byte("replicated payload of " + name)})
	return ReplicaRecord{Name: name, Shingles: sk.Shingles, Signature: sk.Signature}
}

func ingestN(t *testing.T, url string, n int) {
	t.Helper()
	var req IngestRequest
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("page-%02d.txt", i)
		req.Records = append(req.Records, IngestRecord{
			Name: name,
			Data: fmt.Sprintf("replica test payload for %s with shared overlapping stems", name),
		})
	}
	resp, out := postJSON(t, http.DefaultClient, url+"/v1/records", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d, body %s", resp.StatusCode, out)
	}
}

// TestListRecordsPagination: GET /v1/records walks the whole corpus in
// cursor-linked pages with full replica payloads (signatures included),
// no duplicates, no gaps.
func TestListRecordsPagination(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 10
	ingestN(t, ts.URL, n)

	seen := make(map[string]bool)
	cursor := ""
	pages := 0
	for {
		url := ts.URL + "/v1/records?limit=3"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, out := getBody(t, http.DefaultClient, url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list page = %d, body %s", resp.StatusCode, out)
		}
		var page RecordListResponse
		if err := json.Unmarshal(out, &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Records) > 3 {
			t.Fatalf("page of %d records exceeds limit 3", len(page.Records))
		}
		for _, rec := range page.Records {
			if seen[rec.Name] {
				t.Fatalf("record %s appeared on two pages", rec.Name)
			}
			seen[rec.Name] = true
			if len(rec.Signature) == 0 {
				t.Fatalf("record %s listed without its signature", rec.Name)
			}
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(seen) != n {
		t.Fatalf("pagination walked %d records, want %d", len(seen), n)
	}
	if pages < 4 {
		t.Fatalf("10 records at limit 3 should take at least 4 pages, took %d", pages)
	}

	// An empty corpus still encodes "records":[] with no cursor.
	_, ts2 := newTestServer(t, Config{})
	resp, out := getBody(t, http.DefaultClient, ts2.URL+"/v1/records")
	if resp.StatusCode != http.StatusOK || string(out) != "{\"records\":[]}\n" {
		t.Fatalf("empty list = %d, body %q, want {\"records\":[]}", resp.StatusCode, out)
	}
}

// TestListRecordsCursorGone: a cursor naming a record that no longer
// exists (deleted between pages) is 410 cursor_gone — the walker
// restarts rather than silently skipping a gap.
func TestListRecordsCursorGone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ingestN(t, ts.URL, 4)

	resp, out := getBody(t, http.DefaultClient, ts.URL+"/v1/records?cursor=never-indexed.txt")
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stale cursor = %d, want 410; body %s", resp.StatusCode, out)
	}
	var env struct {
		Error ErrorDetail `json:"error"`
	}
	if err := json.Unmarshal(out, &env); err != nil || env.Error.Code != CodeCursorGone {
		t.Fatalf("want %s envelope, got %s", CodeCursorGone, out)
	}

	// Bad limits are 400s.
	for _, q := range []string{"limit=0", "limit=-2", "limit=notanumber", "limit=99999"} {
		resp, out := getBody(t, http.DefaultClient, ts.URL+"/v1/records?"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("list with %s = %d, want 400; body %s", q, resp.StatusCode, out)
		}
	}
}

// TestReplicateEndpoint: POST /v1/admin/replicate inserts pre-built
// sketches byte-identically — the transport repair and rebalance use —
// and is idempotent.
func TestReplicateEndpoint(t *testing.T) {
	_, src := newTestServer(t, Config{})
	ingestN(t, src.URL, 3)

	// Pull one record with its signature; GET must honor ?signature=1.
	resp, out := getBody(t, http.DefaultClient, src.URL+"/v1/records/page-01.txt?signature=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get with signature = %d, body %s", resp.StatusCode, out)
	}
	var rec RecordResponse
	if err := json.Unmarshal(out, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Signature) != 64 {
		t.Fatalf("signature length = %d, want 64", len(rec.Signature))
	}
	// Signatures are always full-width, so neither read names a width.
	if _, page := getBody(t, http.DefaultClient, src.URL+"/v1/records"); strings.Contains(string(out)+string(page), `"bits"`) {
		t.Fatalf("a record body carries a bits key: %s %s", out, page)
	}
	// Without the flag the wire stays lean.
	_, lean := getBody(t, http.DefaultClient, src.URL+"/v1/records/page-01.txt")
	var leanRec RecordResponse
	if err := json.Unmarshal(lean, &leanRec); err != nil {
		t.Fatal(err)
	}
	if len(leanRec.Signature) != 0 {
		t.Fatalf("plain GET leaked the signature: %s", lean)
	}

	dstSrv, dst := newTestServer(t, Config{})
	rep := ReplicateRequest{Records: []ReplicaRecord{{
		Name: rec.Name, Shingles: rec.Shingles, Signature: rec.Signature,
	}}}
	resp, out = postJSON(t, http.DefaultClient, dst.URL+"/v1/admin/replicate", rep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replicate = %d, body %s", resp.StatusCode, out)
	}
	var ing IngestResponse
	if err := json.Unmarshal(out, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Received != 1 || ing.Added != 1 {
		t.Fatalf("replicate response = %+v, want 1 received / 1 added", ing)
	}
	// The copy is byte-identical to the original.
	got := dstSrv.Engine().Index().Get("page-01.txt")
	if got == nil {
		t.Fatal("replicated record missing from the destination index")
	}
	for i, v := range got.Signature {
		if v != rec.Signature[i] {
			t.Fatalf("signature slot %d = %d, want %d — replication must not re-sketch", i, v, rec.Signature[i])
		}
	}

	// Idempotent: the same copy again is a skip, not an error.
	resp, out = postJSON(t, http.DefaultClient, dst.URL+"/v1/admin/replicate", rep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-replicate = %d, body %s", resp.StatusCode, out)
	}
	if err := json.Unmarshal(out, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Added != 0 || ing.Skipped != 1 {
		t.Fatalf("re-replicate response = %+v, want 0 added / 1 skipped", ing)
	}

	// A signature of the wrong width is the sender's fault: 400, and
	// nothing lands.
	bad := ReplicateRequest{Records: []ReplicaRecord{{
		Name: "bad.txt", Shingles: 5, Signature: make([]uint64, 7),
	}}}
	resp, out = postJSON(t, http.DefaultClient, dst.URL+"/v1/admin/replicate", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("replicate with a short signature = %d, want 400; body %s", resp.StatusCode, out)
	}
	if dstSrv.Engine().Index().Has("bad.txt") {
		t.Fatal("rejected replicate must not leave the record behind")
	}

	// Replicated inserts are visible in /stats.
	_, stats := getBody(t, http.DefaultClient, dst.URL+"/stats")
	var st StatsResponse
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Ingest.Replicated != 1 {
		t.Fatalf("stats replicated = %d, want 1", st.Ingest.Replicated)
	}
}

// TestReplicateErrorKinds: the status says whose fault a failed
// replicate is, whatever the count of records that landed before it. A
// sketch the index cannot hold is the sender's (400) even behind a valid
// one; a failed commit is the server's (500) even when the batch added
// nothing — here a duplicate whose barrier shares a failed sweep with
// another writer's frame. A width other than 64 (absent, as for "held",
// means 64) is refused before anything lands.
func TestReplicateErrorKinds(t *testing.T) {
	eng := tieredTestEngine(t, t.TempDir())
	s, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rec := func(name string) ReplicaRecord { return replicaOf(eng, name) }
	narrow, wide := rec("narrow"), rec("wide")
	narrow.Bits, wide.Bits = 8, 64
	if resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/admin/replicate",
		ReplicateRequest{Records: []ReplicaRecord{rec("held")}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("replicate = %d, body %s", resp.StatusCode, out)
	}

	for _, tc := range []struct {
		name    string
		arm     func()
		records []ReplicaRecord
		status  int
		code    string
	}{
		{"invalid sketch behind a valid one", func() {},
			[]ReplicaRecord{rec("fine"), {Name: "short", Shingles: 5, Signature: make([]uint64, 7)}},
			http.StatusBadRequest, CodeBadRequest},
		{"8-bit slots behind a valid one", func() {}, []ReplicaRecord{rec("early"), narrow}, http.StatusBadRequest, CodeBadRequest},
		{"64-bit slots", func() {}, []ReplicaRecord{wide}, http.StatusOK, ""},
		{"failed commit of an all-duplicate batch", func() {
			// Another writer's frame, appended and not yet synced.
			if _, err := eng.Index().Add(eng.Sketcher().Sketch(core.Record{Name: "bystander", Data: []byte("unsynced")})); err != nil {
				t.Fatal(err)
			}
			p, err := fault.Parse("wal.write:error=1", 1)
			if err != nil {
				t.Fatal(err)
			}
			fault.Enable(p)
		}, []ReplicaRecord{rec("held")}, http.StatusInternalServerError, CodeInternal},
	} {
		tc.arm()
		resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/admin/replicate", ReplicateRequest{Records: tc.records})
		fault.Disable()
		var eb errorBody
		if err := json.Unmarshal(out, &eb); err != nil || resp.StatusCode != tc.status || eb.Error.Code != tc.code {
			t.Errorf("%s: %d %s, want %d %s", tc.name, resp.StatusCode, out, tc.status, tc.code)
		}
	}
	if ix := eng.Index(); ix.Has("early") || ix.Has("narrow") || !ix.Has("wide") {
		t.Errorf("after the width cases: early %v narrow %v wide %v, want only wide", ix.Has("early"), ix.Has("narrow"), ix.Has("wide"))
	}
}

// TestRecordsIterator exercises the core pagination primitive directly:
// stable walk, deleted-cursor detection, delete-during-walk tolerance.
func TestRecordsIterator(t *testing.T) {
	eng := testEngine(t)
	for i := 0; i < 7; i++ {
		if _, err := eng.AddBatch([]core.Record{{
			Name: fmt.Sprintf("it-%d", i),
			Data: []byte(fmt.Sprintf("iterator corpus payload %d with stems", i)),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	ix := eng.Index()

	var all []string
	cursor := ""
	for {
		page, next, err := ix.Records(cursor, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, sk := range page {
			all = append(all, sk.Name)
		}
		if next == "" {
			break
		}
		cursor = next
	}
	if len(all) != 7 {
		t.Fatalf("iterator yielded %d records, want 7", len(all))
	}

	if _, _, err := ix.Records("no-such-record", 3); !errors.Is(err, core.ErrCursorGone) {
		t.Fatalf("unknown cursor error = %v, want ErrCursorGone", err)
	}

	// Deleting the record a cursor points past must not break the walk:
	// the cursor name stays in order (tombstoned) or the caller gets
	// cursor_gone and restarts — either way, no silent gap. Here the
	// cursor record survives, a later record dies mid-walk.
	page, next, err := ix.Records("", 3)
	if err != nil || next == "" {
		t.Fatalf("first page: %v, next %q", err, next)
	}
	if _, err := ix.Delete(all[4]); err != nil {
		t.Fatal(err)
	}
	rest, _, err := ix.Records(next, 10)
	if err != nil {
		t.Fatalf("walk after a mid-corpus delete: %v", err)
	}
	for _, sk := range rest {
		if sk.Name == all[4] {
			t.Fatalf("deleted record %s still listed", all[4])
		}
	}
	if len(page)+len(rest) != 6 {
		t.Fatalf("walk after delete yielded %d, want 6", len(page)+len(rest))
	}
}
