package cluster

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Per-backend circuit breaker: the one liveness state machine. Closed
// is the healthy state, open means the backend is shed from first-wave
// traffic, and half-open is the recovery probation — successes are
// flowing but fewer than UpAfter of them have accumulated, so one
// failure snaps straight back to open. "Up" is derived: the breaker is
// closed.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// breakerStateName renders a breaker state for /stats and /metrics.
func breakerStateName(s int32) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// observeBreaker feeds one call's outcome into b's breaker. Every call
// the client makes lands here, a /healthz probe like a search: closed
// trips open after DownAfter consecutive failures, so a single dropped
// call (GC pause, stolen CPU) never flaps the ring; open moves to
// half-open on the first success; half-open closes after UpAfter
// consecutive successes and reopens on any failure. A failing backend
// is therefore shed as fast as traffic discovers it, and the probe loop
// is only the feed that keeps coming when traffic avoids the backend.
// While the breaker is not closed every failure doubles the loop's
// reprobe interval and every success resets it. A close (down->up)
// kicks the hint drainer, exactly when queued writes should replay.
func (c *Coordinator) observeBreaker(b *backend, ok bool) {
	b.bMu.Lock()
	was := b.bState.Load()
	state := was
	if ok {
		b.consecFails = 0
		b.consecOKs++
		if state != breakerClosed {
			b.probeInterval.Store(int64(c.probeBase))
			b.nextProbe.Store(0)
			if state == breakerOpen {
				state = breakerHalfOpen
				b.halfOpens.Add(1)
			}
			if b.consecOKs >= c.cfg.UpAfter {
				state = breakerClosed
				b.closes.Add(1)
				b.downSince.Store(0)
			}
		}
	} else {
		b.consecOKs = 0
		b.consecFails++
		if state == breakerHalfOpen || state == breakerClosed && b.consecFails >= c.cfg.DownAfter {
			if state == breakerClosed {
				b.downSince.Store(time.Now().UnixNano())
			}
			state = breakerOpen
			b.opens.Add(1)
		}
		if state != breakerClosed {
			b.scheduleReprobe(c.probeBase)
		}
	}
	if state != was {
		b.bState.Store(state)
	}
	fails := b.consecFails
	b.bMu.Unlock()
	switch {
	case state == was:
	case state == breakerClosed:
		c.shell.Log().Info("backend up, breaker closed", "backend", b.addr)
		c.kickHintDrain()
	case state == breakerOpen:
		c.shell.Log().Warn("backend down, breaker open", "backend", b.addr, "failures", fails)
	}
}

// probeLoop is the breaker's own feed: every HealthInterval it calls
// /healthz on each backend whose reprobe deadline has passed, through
// the same client.do — and so the same observeBreaker — as every other
// call. A backend that stays down has its deadline pushed out
// exponentially, so it costs one connection attempt per backoff period
// instead of one per tick. Probes run sequentially — the fleet is small
// and one goroutine is enough — each bounded by the fan-out timeout.
func (c *Coordinator) probeLoop(ctx context.Context) {
	if c.cfg.HealthInterval <= 0 {
		return
	}
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			now := time.Now().UnixNano()
			for _, b := range c.backendList() {
				if now < b.nextProbe.Load() {
					continue
				}
				pctx, cancel := context.WithTimeout(ctx, c.cfg.FanoutTimeout)
				_ = c.client.do(pctx, b, "GET", "/healthz", nil, nil)
				cancel()
			}
		}
	}
}

// scheduleReprobe doubles b's reprobe interval (starting from base,
// capped at ten times it) and sets the next probe deadline with +-20%
// jitter, so a fleet of coordinators restarting together does not
// reprobe in lockstep. The stored interval is the nominal, unjittered
// one so /stats shows a stable number. Callers hold b.bMu.
func (b *backend) scheduleReprobe(base time.Duration) {
	next := min(max(time.Duration(b.probeInterval.Load())*2, base), 10*base)
	b.probeInterval.Store(int64(next))
	jittered := time.Duration(float64(next) * (0.8 + 0.4*rand.Float64()))
	b.nextProbe.Store(time.Now().Add(jittered).UnixNano())
}

// retryBudget is the coordinator-wide token bucket that caps retry
// amplification: every retried backend call — search second waves, hint
// replays, repair copies, enumeration retries — spends one token, and
// tokens refill at a fixed rate. When the bucket runs dry retries are
// denied (the caller degrades: a search goes partial, a hint stays
// queued for the next drain pass) instead of storming a recovering
// backend with the whole cluster's backlog at once.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	rate   float64 // tokens per second
	last   time.Time

	spent  atomic.Int64 // retries granted
	denied atomic.Int64 // retries denied on an empty bucket
}

func newRetryBudget(max int, rate float64) *retryBudget {
	return &retryBudget{tokens: float64(max), max: float64(max), rate: rate, last: time.Now()}
}

// allow takes n tokens, or none: a half-granted retry wave would retry
// some backends and silently skip others, which is worse than an
// honest denial. It reports whether the tokens were granted.
func (rb *retryBudget) allow(n int) bool {
	if n <= 0 {
		return true
	}
	rb.mu.Lock()
	now := time.Now()
	rb.tokens += now.Sub(rb.last).Seconds() * rb.rate
	if rb.tokens > rb.max {
		rb.tokens = rb.max
	}
	rb.last = now
	if rb.tokens < float64(n) {
		rb.mu.Unlock()
		rb.denied.Add(int64(n))
		return false
	}
	rb.tokens -= float64(n)
	rb.mu.Unlock()
	rb.spent.Add(int64(n))
	return true
}

// remaining returns the current token count (refilled to now).
func (rb *retryBudget) remaining() float64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	tokens := rb.tokens + time.Since(rb.last).Seconds()*rb.rate
	if tokens > rb.max {
		tokens = rb.max
	}
	return tokens
}
