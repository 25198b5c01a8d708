package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// Shell is the HTTP plumbing every node role wraps around its routes:
// the in-flight limiter, the counting middleware, the JSON error
// envelope, per-endpoint latency histograms, the request-body codec
// (wire.go), and the listen / serve-until-cancelled / drain
// lifecycle. Server and the cluster coordinator each hold one, so the
// two roles count, limit, decode and shut down by one definition.
type Shell struct {
	cfg     Config
	start   time.Time
	handler http.Handler
	lis     net.Listener

	// All lock-free on the hot path, so observability never serializes
	// request handling.
	requests     atomic.Int64 // accepted past the limiter
	status2xx    atomic.Int64
	status4xx    atomic.Int64
	status5xx    atomic.Int64
	inFlight     atomic.Int64
	peakInFlight atomic.Int64 // high-water mark, proves the limiter's bound

	// latencies is filled by Timed while the routes are built, before
	// Mount, and only read once requests flow.
	latencies map[string]*histogram
}

// NewShell applies the package defaults to cfg's zero fields and
// returns a Shell over it. It reads Addr, MaxInFlight, MaxBatch,
// MaxBodyBytes, DrainTimeout and Logf; the rest of Config is the
// Server's.
func NewShell(cfg Config) *Shell {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	return &Shell{cfg: cfg, start: time.Now(), latencies: make(map[string]*histogram)}
}

// Mount installs routes behind the shell's middleware, outermost first:
// limit → count → jsonErrors → routes.
func (sh *Shell) Mount(routes http.Handler) {
	sh.handler = sh.limit(sh.count(jsonErrors(routes)))
}

// Handler returns the mounted handler, for tests and embedding.
func (sh *Shell) Handler() http.Handler { return sh.handler }

// HTTPStats is the counting middleware's snapshot: the block of /stats,
// and through its tags of /metrics, that both node roles report.
type HTTPStats struct {
	Total        int64 `json:"total" prom:"requests_total" help:"HTTP requests accepted past the limiter."`
	Status2xx    int64 `json:"status_2xx" prom:"responses_total,class=2xx" help:"HTTP responses by status class."`
	Status4xx    int64 `json:"status_4xx" prom:"responses_total,class=4xx"`
	Status5xx    int64 `json:"status_5xx" prom:"responses_total,class=5xx"`
	InFlight     int64 `json:"in_flight" prom:"in_flight_requests" help:"Requests currently being served."`
	PeakInFlight int64 `json:"peak_in_flight" prom:"peak_in_flight" help:"Most requests ever served at once; bounded by max_in_flight."`
	MaxInFlight  int   `json:"max_in_flight"`
}

// HTTPStats snapshots the counting middleware.
func (sh *Shell) HTTPStats() HTTPStats {
	return HTTPStats{
		Total:        sh.requests.Load(),
		Status2xx:    sh.status2xx.Load(),
		Status4xx:    sh.status4xx.Load(),
		Status5xx:    sh.status5xx.Load(),
		InFlight:     sh.inFlight.Load(),
		PeakInFlight: sh.peakInFlight.Load(),
		MaxInFlight:  sh.cfg.MaxInFlight,
	}
}

// UptimeSeconds is the time since NewShell.
func (sh *Shell) UptimeSeconds() float64 { return time.Since(sh.start).Seconds() }

// limit is the concurrency-limit middleware: at most MaxInFlight
// requests run at once, and excess requests wait on the semaphore
// rather than being shed, so bursts queue instead of failing. A client
// that gives up while waiting gets 503, counted as a 5xx (but not in
// the total, which counts requests accepted past the limiter).
func (sh *Shell) limit(next http.Handler) http.Handler {
	sem := make(chan struct{}, sh.cfg.MaxInFlight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
		case <-r.Context().Done():
			sh.status5xx.Add(1)
			WriteError(w, http.StatusServiceUnavailable, CodeOverloaded, "server overloaded")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// count is the observability middleware: request totals, status
// classes, and the in-flight gauge with its high-water mark, all
// behind the limiter.
func (sh *Shell) count(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sh.requests.Add(1)
		n := sh.inFlight.Add(1)
		for {
			peak := sh.peakInFlight.Load()
			if n <= peak || sh.peakInFlight.CompareAndSwap(peak, n) {
				break
			}
		}
		defer sh.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		switch {
		case sw.code >= 500:
			sh.status5xx.Add(1)
		case sw.code >= 400:
			sh.status4xx.Add(1)
		default: // 0: the handler never wrote, net/http sends 200
			sh.status2xx.Add(1)
		}
	})
}

// statusWriter records the status code a handler wrote (0 when it
// wrote nothing at all).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Timed wraps one endpoint's handler with its latency histogram. Call
// it while building the routes, before Mount.
func (sh *Shell) Timed(name string, h http.HandlerFunc) http.HandlerFunc {
	hist, ok := sh.latencies[name]
	if !ok {
		hist = &histogram{counts: make([]atomic.Int64, len(latencyBuckets)+1)}
		sh.latencies[name] = hist
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.observe(time.Since(start))
	}
}

// latencyBuckets are the fixed upper bounds, in seconds, of every
// endpoint latency histogram. They span sub-millisecond cache-warm
// searches through multi-second compacting snapshots; observations
// above the last bound land only in the implicit +Inf bucket. Treat as
// read-only.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// histogram is a fixed-bucket latency histogram in the Prometheus
// style: per-bucket counts (non-cumulative in memory, summed at render
// time), a running sum, and a total count, all atomics.
type histogram struct {
	counts   []atomic.Int64 // len(latencyBuckets)+1; last is +Inf overflow
	sumNanos atomic.Int64
	count    atomic.Int64
}

// observe records one duration. Safe for concurrent use.
func (h *histogram) observe(d time.Duration) {
	i := sort.SearchFloat64s(latencyBuckets, d.Seconds())
	h.counts[i].Add(1)
	h.sumNanos.Add(int64(d))
	h.count.Add(1)
}

// checked is a request body with rules beyond its JSON shape. Decode
// runs Check after a successful parse; a non-zero status (400 or 413)
// rejects the request with msg. Check may fill defaults in.
type checked interface {
	Check(maxBatch int) (status int, msg string)
}

// checkBatch is the rule ingest and replicate bodies share: at least
// one record, at most maxBatch, every record named.
func checkBatch(op string, n, maxBatch int, name func(int) string) (int, string) {
	if n == 0 {
		return http.StatusBadRequest, op + ": no records in request"
	}
	if n > maxBatch {
		return http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%s: batch of %d records exceeds the %d-record limit", op, n, maxBatch)
	}
	for i := 0; i < n; i++ {
		if name(i) == "" {
			return http.StatusBadRequest, fmt.Sprintf("%s: record %d has an empty name", op, i)
		}
	}
	return 0, ""
}

// Listen binds cfg.Addr and returns the bound address (useful with
// port 0). It must be called once, before Serve.
func (sh *Shell) Listen() (net.Addr, error) {
	lis, err := net.Listen("tcp", sh.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", sh.cfg.Addr, err)
	}
	sh.lis = lis
	return lis.Addr(), nil
}

// Serve serves the mounted handler on the listener bound by Listen
// until ctx is canceled, then drains: in-flight requests get up to
// DrainTimeout to finish before their connections are closed. Once it
// returns no handler is running. It returns nil on a clean drain.
func (sh *Shell) Serve(ctx context.Context) error {
	if sh.lis == nil {
		return errors.New("server: Serve called before Listen")
	}
	hs := &http.Server{Handler: sh.handler, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(sh.lis) }()
	select {
	case err := <-errc: // listener failure outside a requested shutdown
		return err
	case <-ctx.Done():
		sh.logf("shutdown requested, draining (timeout %s)", sh.cfg.DrainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), sh.cfg.DrainTimeout)
		err := hs.Shutdown(drainCtx)
		cancel()
		<-errc // always http.ErrServerClosed after Shutdown
		sh.logf("drained")
		return err
	}
}

func (sh *Shell) logf(format string, args ...any) {
	if sh.cfg.Logf != nil {
		sh.cfg.Logf(format, args...)
	}
}

// jsonErrors converts any plain-text error the routing layer emits —
// ServeMux's own 404s and 405s, mainly — into the JSON error envelope,
// so every error response on the API carries the same shape. Responses
// written through WriteJSON are untouched: it sets Content-Type to
// application/json before WriteHeader, which is the discriminator.
func jsonErrors(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}

// envelopeWriter rewrites non-JSON error responses into the envelope.
// When it intercepts a status, the original handler's body is dropped
// (Write reports success so upstream writers don't error out).
type envelopeWriter struct {
	http.ResponseWriter
	wrote    bool
	suppress bool
}

func (w *envelopeWriter) WriteHeader(code int) {
	if w.wrote {
		return
	}
	w.wrote = true
	if code >= 400 && w.Header().Get("Content-Type") != "application/json" {
		w.suppress = true
		body := marshalError(CodeForStatus(code), http.StatusText(code))
		h := w.Header()
		h.Del("Content-Length")
		h.Set("Content-Type", "application/json")
		h.Set("X-Content-Type-Options", "nosniff")
		w.ResponseWriter.WriteHeader(code)
		_, _ = w.ResponseWriter.Write(body)
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *envelopeWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	if w.suppress {
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}
