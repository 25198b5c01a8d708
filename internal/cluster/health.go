package cluster

import (
	"context"
	"math/rand"
	"time"
)

// healthLoop probes backends' /healthz until ctx is canceled. The loop
// ticks at HealthInterval, but each backend carries its own reprobe
// deadline: a backend that keeps failing probes has its interval
// doubled (with jitter, capped at MaxProbeInterval), so a dead backend
// costs one connection attempt every backoff period instead of every
// tick, and a fleet of coordinators restarting together does not
// reprobe in lockstep. Probes run sequentially — the fleet is small
// and a sequential sweep keeps the checker to one goroutine — with
// each probe bounded by the fan-out timeout.
func (c *Coordinator) healthLoop(ctx context.Context) {
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			now := time.Now()
			for _, b := range c.backendList() {
				if now.Before(b.nextProbe) {
					continue
				}
				c.probe(ctx, b)
			}
		}
	}
}

func (c *Coordinator) probe(ctx context.Context, b *backend) {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.FanoutTimeout)
	err := c.client.send(pctx, b, "GET", "/healthz", nil, nil)
	cancel()
	c.observeProbe(b, err == nil)
	if err != nil {
		msg := err.Error()
		b.lastErr.Store(&msg)
	}
}

// observeProbe feeds one probe outcome into b's circuit breaker (see
// observeBreaker in resilience.go): a backend trips open only after
// DownAfter consecutive failures and closes only after UpAfter
// consecutive successes through half-open, so a single dropped probe
// (GC pause, stolen CPU) never flaps the ring, and an open->closed
// transition kicks the hint drainer — the moment a backend recovers is
// exactly when its queued writes should replay. Unlike the pre-breaker
// hysteresis, live request outcomes feed the same state machine, so
// probes are the backstop rather than the only signal; the reprobe
// backoff schedule, though, is still the health loop's alone.
func (c *Coordinator) observeProbe(b *backend, ok bool) {
	c.observeBreaker(b, ok, true)
}

// baseProbeInterval is the healthy-backend probe cadence. Hand-driven
// tests configure a negative HealthInterval; backoff math still needs
// a positive base then.
func (c *Coordinator) baseProbeInterval() time.Duration {
	if c.cfg.HealthInterval > 0 {
		return c.cfg.HealthInterval
	}
	return DefaultHealthInterval
}

// scheduleReprobe doubles b's reprobe interval (starting from base,
// capped at max) and sets the next probe deadline with +-20% jitter.
// The stored interval is the nominal, unjittered one so /stats shows a
// stable number.
func (b *backend) scheduleReprobe(base, max time.Duration) {
	next := time.Duration(b.probeInterval.Load()) * 2
	if next < base {
		next = base
	}
	if next > max {
		next = max
	}
	b.probeInterval.Store(int64(next))
	jittered := time.Duration(float64(next) * (0.8 + 0.4*rand.Float64()))
	b.nextProbe = time.Now().Add(jittered)
}
