package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"sketchengine/internal/fault"
	"sketchengine/internal/server"
)

// backend is one configured backend: its address, the shared HTTP
// client state, and its circuit breaker.
type backend struct {
	addr string // host:port, as configured
	base string // http://host:port

	// Circuit breaker state (see resilience.go). bMu guards the
	// consecutive counters and state transitions — concurrent calls feed
	// one machine; bState is additionally atomic so request paths and
	// /stats read it without the lock. Backends start closed
	// (optimistically): a backend that is actually down costs one failed
	// fan-out per request until the breaker trips, while a backend
	// wrongly held open would silently shed load.
	bMu         sync.Mutex
	bState      atomic.Int32
	consecFails int
	consecOKs   int
	opens       atomic.Int64 // ->open transitions (trip or failed probation)
	halfOpens   atomic.Int64 // ->half-open transitions (first success while open)
	closes      atomic.Int64 // ->closed transitions (recovery)

	// Observed traffic, for /stats and the ring-occupancy metric.
	routedRecords atomic.Int64 // records routed here by ingest
	requests      atomic.Int64 // proxied requests sent
	failures      atomic.Int64 // proxied requests that errored

	lastErr   atomic.Pointer[string] // last call error, probes included
	downSince atomic.Int64           // unix nanos; 0 while up

	// probeInterval is the probe loop's reprobe cadence in nanoseconds
	// while the breaker is not closed: doubling per failure, back to the
	// base health interval on a success (see scheduleReprobe). nextProbe
	// is the deadline it implies, unix nanos, 0 = next tick.
	probeInterval atomic.Int64
	nextProbe     atomic.Int64
}

func newBackend(addr string) *backend {
	return &backend{addr: addr, base: "http://" + addr}
}

// up reports whether b's breaker is closed: the health state request
// paths read.
func (b *backend) up() bool { return b.bState.Load() == breakerClosed }

// transitions counts b's up<->down flips: two per completed recovery,
// plus one while it is down.
func (b *backend) transitions() int64 {
	n := 2 * b.closes.Load()
	if !b.up() {
		n++
	}
	return n
}

func (b *backend) noteError(err error) {
	msg := err.Error()
	b.lastErr.Store(&msg)
	b.failures.Add(1)
}

// BackendError is a non-2xx response from a backend, carrying the
// envelope the backend sent so the coordinator can propagate its code.
type BackendError struct {
	Addr   string
	Status int
	Code   string
	Msg    string
}

func (e *BackendError) Error() string {
	return fmt.Sprintf("backend %s: %d %s: %s", e.Addr, e.Status, e.Code, e.Msg)
}

// client wraps the one shared http.Client all fan-outs use. Idle
// connections are pooled per backend so steady-state scatter-gather
// reuses warm connections instead of paying a dial per probe. The
// transport is wrapped in the backend.rt faultpoint — a single atomic
// nil check per request when no fault spec is armed — so chaos tests
// inject latency, 5xx, resets, and torn bodies exactly where the
// network would.
type client struct {
	hc *http.Client

	// observe, when set, receives every call's outcome — the feed into
	// the per-backend circuit breaker (classify with requestOK).
	observe func(b *backend, err error)
}

func newClient(backends int) *client {
	return &client{hc: &http.Client{
		Transport: &fault.RoundTripper{
			Point: "backend.rt",
			Base: &http.Transport{
				MaxIdleConns:        4 * backends,
				MaxIdleConnsPerHost: 4,
			},
		},
	}}
}

// bodyBufPool recycles the buffers backend answers are read into.
// Request bodies are not pooled: an http.RoundTripper may still read or
// close a request body after RoundTrip returns, so its bytes must never
// be handed to another request.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// do sends one request to b and decodes the JSON response into out
// (skipped when out is nil). body, when non-nil, is JSON-encoded as
// the request body. Non-2xx responses decode the error envelope into a
// *BackendError. The caller bounds the call with ctx; a ctx deadline
// is propagated to the backend in the X-Sketch-Deadline header so the
// backend can abort work the coordinator has already given up on, and
// ctx's request ID (server.RequestID) in X-Sketch-Request-Id, so the
// backend's log lines carry the coordinator's. The outcome feeds the
// breaker via the observe hook.
func (c *client) do(ctx context.Context, b *backend, method, path string, body, out any) error {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = server.AppendJSON(nil, body); err != nil {
			return fmt.Errorf("backend %s: encode request: %w", b.addr, err)
		}
	}
	return c.doRaw(ctx, b, method, path, raw, out)
}

// requestOK classifies a request outcome for the breaker: nil and
// below-500 envelope errors mean the backend is serving (a 404 or 400
// is a healthy answer); transport errors, torn responses, and 5xx count
// against it.
func requestOK(err error) bool {
	if err == nil {
		return true
	}
	var berr *BackendError
	return errors.As(err, &berr) && berr.Status < 500
}

// doRaw is do for a body the caller has already encoded: the search
// fan-out encodes its request once and hands every backend the same
// bytes.
func (c *client) doRaw(ctx context.Context, b *backend, method, path string, body []byte, out any) (err error) {
	if c.observe != nil {
		defer func() { c.observe(b, err) }()
	}
	b.requests.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body) // NewRequest takes the length from it
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, rd)
	if err != nil {
		return fmt.Errorf("backend %s: %w", b.addr, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(server.DeadlineHeader, strconv.FormatInt(dl.UnixMilli(), 10))
	}
	if id := server.RequestID(ctx); id != "" {
		req.Header.Set(server.RequestIDHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		b.noteError(err)
		return fmt.Errorf("backend %s: %w", b.addr, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var envelope struct {
			Error server.ErrorDetail `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&envelope)
		berr := &BackendError{Addr: b.addr, Status: resp.StatusCode, Code: envelope.Error.Code, Msg: envelope.Error.Message}
		if berr.Code == "" {
			berr.Code = server.CodeForStatus(resp.StatusCode)
		}
		if resp.StatusCode >= 500 {
			b.noteError(berr)
		}
		return berr
	}
	if out != nil {
		buf := bodyBufPool.Get().(*bytes.Buffer)
		buf.Reset()
		defer bodyBufPool.Put(buf)
		_, err := buf.ReadFrom(resp.Body)
		if err == nil {
			err = server.DecodeJSON(buf.Bytes(), out)
		}
		if err != nil {
			b.noteError(err)
			return fmt.Errorf("backend %s: decode response: %w", b.addr, err)
		}
	}
	return nil
}
