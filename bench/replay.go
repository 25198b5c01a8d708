package main

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"time"

	"sketchengine/internal/core"
)

const (
	replayQueries   = 600     // search operations replayed into each layer
	replayAllocs    = 100     // of them, replayed again to count allocations
	replayMisses    = 32      // miss queries replayed into the LSH fallback
	replaySketches  = 512     // documents replayed into the sketcher
	similarityCalls = 200_000 // core.Similarity calls timed as one block
)

// discard is an http.ResponseWriter that keeps nothing, so the
// envelope replay measures the handler and not a recorder's buffers.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// replayLayers feeds the workload's own query sequence, single
// threaded and with the system quiesced, straight into each layer's
// public functions on the first backend: the sketcher, the index
// search, and the server's handler on an in-memory writer. The
// handler's time minus the sketch and search it contains is the
// serving envelope's own cost.
func replayLayers(s *stack, l *loadgen, w workload, m metricSet) {
	n := s.nodes[0]
	ix, sk, pool := n.eng.Index(), n.eng.Sketcher(), n.eng.Pool()
	c := l.corpus

	// L0 canary: the slot comparison on corpus pairs. It moves with the
	// machine, not with the code above it.
	pairs := make([]*core.Sketch, 64)
	for i := range pairs {
		_, data := c.record(i)
		pairs[i] = sk.Sketch(core.Record{Data: data})
	}
	t := time.Now()
	for i := 0; i < similarityCalls; i++ {
		_, _ = core.Similarity(pairs[i%64], pairs[(i+1)%64]) // sketches of one sketcher are always comparable
	}
	m.setN("core.similarity.ns", float64(time.Since(t))/similarityCalls, "ns", similarityCalls)

	// Sketching: the documents this workload sketches per request,
	// queries and, where it ingests, payloads.
	sketchDocs := c.hitDocs[:replaySketches]
	if w.mix.ingest > 0 {
		sketchDocs = append(append([][]byte(nil), sketchDocs[:replaySketches/2]...), c.payloads[:replaySketches/2]...)
	}
	var sketchUS []float64
	var sketchBytes int
	var sketchTotal time.Duration
	for _, d := range sketchDocs {
		t := time.Now()
		sk.Sketch(core.Record{Data: d})
		el := time.Since(t)
		sketchUS = append(sketchUS, float64(el)/1e3)
		sketchBytes += len(d)
		sketchTotal += el
	}
	m.setN("core.sketch.p50_us", percentile(sketchUS, 0.50), "us", len(sketchUS))
	m.set("core.sketch.mb_per_s", ratio(float64(sketchBytes)/1e6, sketchTotal.Seconds()), "MB/s")

	// Search and envelope share the workload's query sequence: even
	// queries are sketched and searched in the index directly, odd ones
	// go through the server's handler. The two halves are the same
	// distribution, alternate in time so machine drift hits both alike,
	// and repeat no query, so neither half finds the other's rows warm in
	// the cache. The envelope's own time is the handler's median minus
	// the median of the sketch and search it contains.
	search := core.SearchTopKLSHCtx
	if w.mode == string(core.ModeExact) {
		search = core.SearchTopKCtx
	}
	ctx := context.Background()
	h := n.srv.Handler()
	out := &discard{h: make(http.Header)}
	handle := func(body []byte) {
		r, _ := http.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)) // constant method and URL: cannot fail
		clear(out.h)
		h.ServeHTTP(out, r)
	}
	docs, bodies := l.searchSequence(w, replayQueries)
	var searchUS, innerUS, handlerUS []float64
	for i, d := range docs {
		t0 := time.Now()
		if i%2 == 1 {
			handle(bodies[i])
			handlerUS = append(handlerUS, float64(time.Since(t0))/1e3)
			continue
		}
		q := sk.Sketch(core.Record{Name: "replay", Data: d})
		t1 := time.Now()
		_, _ = search(ctx, ix, q, searchK, searchMinSim, pool) // the verify step already proved these queries answerable
		t2 := time.Now()
		searchUS = append(searchUS, float64(t2.Sub(t1))/1e3)
		innerUS = append(innerUS, float64(t2.Sub(t0))/1e3)
	}
	m.setN("core.search.p50_us", percentile(searchUS, 0.50), "us", len(searchUS))
	m.setN("core.search.p99_us", percentile(searchUS, 0.99), "us", len(searchUS))
	m.setN("server.envelope.search.self_p50_us", percentile(handlerUS, 0.50)-percentile(innerUS, 0.50), "us", len(handlerUS))

	var missUS []float64
	for _, d := range c.missDocs[:replayMisses] {
		q := sk.Sketch(core.Record{Name: "replay", Data: d})
		t := time.Now()
		_, _ = core.SearchTopKLSHCtx(ctx, ix, q, searchK, searchMinSim, pool)
		missUS = append(missUS, float64(time.Since(t))/1e3)
	}
	m.setN("core.search.miss_p50_us", percentile(missUS, 0.50), "us", len(missUS))

	// Allocations, each layer in a loop of its own so the counters see
	// nothing else. The envelope's include building the request.
	allocs := func(n int, f func(i int)) (perOp, bytesPerOp float64) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < n; i++ {
			f(i)
		}
		runtime.ReadMemStats(&ms1)
		return float64(ms1.Mallocs-ms0.Mallocs) / float64(n), float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
	}
	sketches := make([]*core.Sketch, replayAllocs)
	for i := range sketches {
		sketches[i] = sk.Sketch(core.Record{Name: "replay", Data: docs[i]})
	}
	perOp, _ := allocs(replayAllocs, func(i int) { _, _ = search(ctx, ix, sketches[i], searchK, searchMinSim, pool) })
	m.set("core.search.allocs_per_op", perOp, "count")
	perOp, bytesPerOp := allocs(replayAllocs, func(i int) { handle(bodies[i]) })
	m.set("server.envelope.search.allocs_per_op", perOp, "count")
	m.set("server.envelope.search.bytes_per_op", bytesPerOp, "B")
}
