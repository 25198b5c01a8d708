package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sketchengine/internal/core"
)

// benchPayload returns n bytes of deterministic pseudo-random text.
func benchPayload(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	for i := range data {
		data[i] = byte('a' + rng.Intn(26))
	}
	return string(data)
}

// newBenchServer preloads records records and fronts the server with a
// keep-alive HTTP test server, so benchmarks measure the full serving
// path: routing, middleware, JSON, and the engine.
func newBenchServer(b *testing.B, records int) (*httptest.Server, *http.Client) {
	b.Helper()
	eng, err := core.NewEngine(core.Options{K: 8, SignatureSize: 128, IndexName: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]core.Record, records)
	for i := range recs {
		recs[i] = core.Record{
			Name: fmt.Sprintf("bench-%d", i),
			Data: []byte(benchPayload(1<<10, int64(i+1))),
		}
	}
	if _, err := eng.AddBatch(recs); err != nil {
		b.Fatal(err)
	}
	s, err := New(eng, Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			b.Error(err)
		}
	})
	return ts, ts.Client()
}

func benchPost(b *testing.B, client *http.Client, url string, body []byte) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Error(err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Errorf("status %d", resp.StatusCode)
	}
}

// BenchmarkServeSearch measures concurrent top-K search throughput
// through the full HTTP stack against a 1k-record corpus.
func BenchmarkServeSearch(b *testing.B) {
	ts, client := newBenchServer(b, 1000)
	query, err := json.Marshal(SearchRequest{
		Name: "query",
		Data: benchPayload(1<<10, 1), // near-duplicate of bench-0
		K:    10,
	})
	if err != nil {
		b.Fatal(err)
	}
	url := ts.URL + "/v1/search"
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchPost(b, client, url, query)
		}
	})
}

// benchIngestSeq hands out globally unique record names so repeated
// benchmark runs in one process never collide into skip-existing adds.
var benchIngestSeq atomic.Int64

// BenchmarkServeIngestWhileSearch interleaves batched ingest with
// search across the parallel workers: the serving layer's
// ingest-under-read contention path, exercising the write path and the
// index's lock stripes together.
func BenchmarkServeIngestWhileSearch(b *testing.B) {
	ts, client := newBenchServer(b, 1000)
	searchURL := ts.URL + "/v1/search"
	ingestURL := ts.URL + "/v1/records"
	query, err := json.Marshal(SearchRequest{
		Name: "query",
		Data: benchPayload(1<<10, 2),
		K:    10,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			seq := benchIngestSeq.Add(1)
			if seq%4 == 0 { // one ingest per three searches
				body, err := json.Marshal(IngestRequest{Records: []IngestRecord{{
					Name: fmt.Sprintf("ingest-%d", seq),
					Data: benchPayload(1<<10, seq+1_000_000),
				}}})
				if err != nil {
					b.Error(err)
					return
				}
				benchPost(b, client, ingestURL, body)
				continue
			}
			benchPost(b, client, searchURL, query)
		}
	})
}

// BenchmarkIngestWriters is the write path's rung: concurrent writers
// posting ingest requests through Handler() into a durable index, so
// every 200 waited on the index-wide WAL commit. The shapes ask what
// amortises fsyncs as writers are added (1, 16, 64 single-record
// requests in flight) and what a multi-record request costs (16 writers
// of 8 records, which touch several stripes each). rec/s is records
// acknowledged per second, fsyncs/req the WAL fsyncs paid per request.
func BenchmarkIngestWriters(b *testing.B) {
	payloads := make([]string, 64)
	for i := range payloads {
		payloads[i] = benchPayload(1<<10, int64(i+1))
	}
	for _, shape := range []struct{ writers, records int }{{1, 1}, {16, 1}, {64, 1}, {16, 8}} {
		b.Run(fmt.Sprintf("writers=%d/records=%d", shape.writers, shape.records), func(b *testing.B) {
			eng, err := core.NewEngine(core.Options{K: 8, SignatureSize: 128, IndexName: "bench",
				Bits: 8, Tiered: true, DataDir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Index().Close()
			s, err := New(eng, Config{})
			if err != nil {
				b.Fatal(err)
			}
			h := s.Handler()
			var next atomic.Int64
			var wg sync.WaitGroup
			fsyncs := eng.Index().WAL().Fsyncs
			b.ResetTimer()
			for w := 0; w < shape.writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						n := next.Add(1)
						if n > int64(b.N) {
							return
						}
						var req IngestRequest
						for j := 0; j < shape.records; j++ {
							seq := n*int64(shape.records) + int64(j)
							req.Records = append(req.Records, IngestRecord{Name: fmt.Sprintf("rec-%d", seq), Data: payloads[seq%64]})
						}
						body, err := json.Marshal(req)
						if err != nil {
							b.Error(err)
							return
						}
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/records", bytes.NewReader(body)))
						if rec.Code != http.StatusOK {
							b.Errorf("status %d: %s", rec.Code, rec.Body)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N*shape.records)/b.Elapsed().Seconds(), "rec/s")
			b.ReportMetric(float64(eng.Index().WAL().Fsyncs-fsyncs)/float64(b.N), "fsyncs/req")
			if err := s.Close(); err != nil {
				b.Error(err)
			}
		})
	}
}

// BenchmarkDecode measures Shell.Decode alone — body read, parse, Check
// — as MB/s of request body: plain search bodies of three sizes, one with
// a single escape and one of prose (a line break, quote or é every 20
// bytes or so), all taken by the single pass; one with a surrogate-pair
// escape, which encoding/json reads from the same bytes; an 8-record
// ingest; and a backend's 10-hit search answer as the coordinator reads
// it, plain and with a surrogate-pair escape in a ref.
func BenchmarkDecode(b *testing.B) {
	search := func(data string) []byte {
		body, err := json.Marshal(SearchRequest{Name: "query-17", Data: data, K: 10, MinSimilarity: 0.3})
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	var ingest IngestRequest
	for i := 0; i < 8; i++ {
		ingest.Records = append(ingest.Records, IngestRecord{Name: fmt.Sprintf("doc-%d", i), Data: benchPayload(1<<10, int64(i))})
	}
	ingestBody, err := json.Marshal(ingest)
	if err != nil {
		b.Fatal(err)
	}
	answer, err := json.Marshal(tenHits())
	if err != nil {
		b.Fatal(err)
	}
	sh := NewShell(ShellConfig{})
	for _, bc := range []struct {
		name  string
		body  []byte
		fresh func() any
	}{
		{"search-256B", search(benchPayload(256, 1)), func() any { return new(SearchRequest) }},
		{"search-4KiB", search(benchPayload(4<<10, 2)), func() any { return new(SearchRequest) }},
		{"search-16KiB", search(benchPayload(16<<10, 3)), func() any { return new(SearchRequest) }},
		{"search-4KiB-escape", search(benchPayload(4<<10, 2) + "\n"), func() any { return new(SearchRequest) }},
		{"search-4KiB-prose", search(strings.Repeat("a line of prose, \"quoted\", and a café —\nthen the next. ", 80)[:4<<10]), func() any { return new(SearchRequest) }},
		{"search-4KiB-fallback", bytes.Replace(search(benchPayload(4<<10, 2)), []byte(`","k"`), []byte(`\ud83d\ude00","k"`), 1), func() any { return new(SearchRequest) }},
		{"ingest-8x1KiB", ingestBody, func() any { return new(IngestRequest) }},
		{"search-response-10hits", answer, func() any { return new(SearchResponse) }},
		{"search-response-fallback", bytes.Replace(answer, []byte(`.txt"`), []byte(`\ud83d\ude00"`), 1), func() any { return new(SearchResponse) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rd := bytes.NewReader(bc.body)
			r := httptest.NewRequest(http.MethodPost, "/", rd)
			w := httptest.NewRecorder()
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(bc.body)
				r.Body = io.NopCloser(rd)
				if !sh.Decode(w, r, bc.fresh()) {
					b.Fatalf("refused: %s", w.Body)
				}
			}
		})
	}
}

// BenchmarkEncode measures AppendJSON into a reused buffer, as MB/s of
// JSON written: a backend's 10-hit answer, and the 4 KiB search request
// the coordinator forwards, plain and of prose (whose strings go to
// json.Marshal).
func BenchmarkEncode(b *testing.B) {
	request := func(data string) any {
		return &SearchRequest{Name: "query-17", Data: data, K: 10, MinSimilarity: 0.3}
	}
	for _, bc := range []struct {
		name string
		v    any
	}{
		{"search-response-10hits", tenHits()},
		{"search-request-4KiB", request(benchPayload(4<<10, 2))},
		{"search-request-4KiB-prose", request(strings.Repeat("a line of prose, \"quoted\", and a café —\nthen the next. ", 80)[:4<<10])},
	} {
		b.Run(bc.name, func(b *testing.B) {
			out, err := AppendJSON(nil, bc.v)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(out)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _ = AppendJSON(out[:0], bc.v)
			}
		})
	}
}
