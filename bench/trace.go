package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the client's request number to the first handler
// that sees it. The coordinator does not forward it, so backend spans
// behind a coordinator get their request by time containment.
const reqHeader = "X-Bench-Req"

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the recorder was created. Parent is the index of
// the enclosing span in the written trace, -1 for a client span.
type span struct {
	Layer  string `json:"layer"` // client, cluster or server
	Op     string `json:"op"`    // search, write or other
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// recorder is the benchmark-owned span recorder. It wraps the calls
// into each layer from outside; nothing inside core, server or cluster
// is instrumented. A nil recorder records nothing and wraps nothing,
// which is the untraced run.
type recorder struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) add(layer, op string, req int64, start, end time.Time) {
	s := span{Layer: layer, Op: op, Req: req, Parent: -1,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// opOf classifies a request the way the metrics split it.
func opOf(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/search":
		return "search"
	case method == http.MethodPost && path == "/v1/records", method == http.MethodDelete:
		return "write"
	}
	return "other"
}

// wrap times every call into h as a span of the given layer.
func (r *recorder) wrap(layer string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, q)
			return
		}
		req, err := strconv.ParseInt(q.Header.Get(reqHeader), 10, 64)
		if err != nil {
			req = -1
		}
		start := time.Now()
		h.ServeHTTP(w, q)
		r.add(layer, opOf(q.Method, q.URL.Path), req, start, time.Now())
	})
}

// layerRank orders the layers from the outside in.
var layerRank = map[string]int{"client": 0, "cluster": 1, "server": 2}

// resolve sorts the spans by start time and assigns parents by time
// containment: a span's parent is the innermost span of an outer layer
// that encloses it (the three backend calls of one fan-out overlap
// each other, but none is another's parent). With one client there is
// one request at a time, so containment is unambiguous; a span nothing
// encloses (a background repair call, say) keeps parent -1. Contained
// spans inherit the request number.
func (r *recorder) resolve() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	slices.SortFunc(r.spans, func(a, b span) int {
		if a.Start != b.Start {
			return int(a.Start - b.Start)
		}
		return layerRank[a.Layer] - layerRank[b.Layer]
	})
	var open []int // spans that may still enclose a later one, outermost first
	for i := range r.spans {
		s := &r.spans[i]
		for len(open) > 0 && r.spans[open[len(open)-1]].End < s.End {
			open = open[:len(open)-1]
		}
		for j := len(open) - 1; j >= 0; j-- {
			if p := r.spans[open[j]]; layerRank[p.Layer] < layerRank[s.Layer] && p.End >= s.End {
				s.Parent, s.Req = open[j], p.Req
				break
			}
		}
		open = append(open, i)
	}
	return r.spans
}

// writeTrace writes the resolved spans as JSON lines.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMetrics derives the per-layer timings from resolved spans.
func spanMetrics(spans []span, m metricSet) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	type key struct{ layer, op string }
	durs := make(map[key][]float64)
	var netSelf, fanSelf, straggler, backendCalls []float64
	for i, s := range spans {
		if s.Op == "other" {
			continue
		}
		durs[key{s.Layer, s.Op}] = append(durs[key{s.Layer, s.Op}], s.dur())
		kids := children[i]
		switch s.Layer {
		case "client":
			// The client's own share: loopback and net/http on both ends.
			if len(kids) == 1 && s.Op == "search" {
				netSelf = append(netSelf, s.dur()-spans[kids[0]].dur())
			}
		case "cluster":
			if s.Op != "search" {
				continue
			}
			var d []float64
			for _, k := range kids {
				if spans[k].Op == "search" {
					d = append(d, spans[k].dur())
				}
			}
			if len(d) == 0 {
				continue
			}
			slices.Sort(d)
			slowest := d[len(d)-1]
			fanSelf = append(fanSelf, s.dur()-slowest)
			straggler = append(straggler, slowest/d[len(d)/2])
			backendCalls = append(backendCalls, float64(len(d)))
		}
	}
	us := func(name string, v []float64, q float64) { m.set(name, percentile(v, q)/1e3, "us") }
	us("server.handler.search.p50_us", durs[key{"server", "search"}], 0.50)
	us("server.handler.search.p99_us", durs[key{"server", "search"}], 0.99)
	us("server.handler.write.p50_us", durs[key{"server", "write"}], 0.50)
	us("server.handler.write.p99_us", durs[key{"server", "write"}], 0.99)
	us("cluster.handler.search.p50_us", durs[key{"cluster", "search"}], 0.50)
	us("cluster.handler.search.p99_us", durs[key{"cluster", "search"}], 0.99)
	us("cluster.handler.write.p50_us", durs[key{"cluster", "write"}], 0.50)
	us("cluster.fanout.self_p50_us", fanSelf, 0.50)
	us("client.net.self_p50_us", netSelf, 0.50)
	m.set("cluster.fanout.straggler_ratio_p50", percentile(straggler, 0.50), "ratio")
	m.set("cluster.fanout.backend_calls_per_search", mean(backendCalls), "ratio")
}
