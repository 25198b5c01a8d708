package cluster

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sketchengine/internal/server"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultReplication    = 2
	DefaultFanoutTimeout  = 5 * time.Second
	DefaultHealthInterval = time.Second
	DefaultDownAfter      = 3
	DefaultUpAfter        = 2
	DefaultHintTTL        = time.Hour
	DefaultHintInterval   = time.Second
	// DefaultRetryBudget / DefaultRetryRefillPerSec size the
	// coordinator-wide retry token bucket: 64 retried backend calls of
	// burst, refilling at 16/s. Enough that a transient blip retries
	// freely, small enough that a dead backend cannot induce an
	// unbounded retry storm across search, handoff, and repair traffic.
	DefaultRetryBudget       = 64
	DefaultRetryRefillPerSec = 16.0
)

// Config configures a Coordinator. Zero values fall back to the
// defaults above; Addr, MaxInFlight, MaxBatch, MaxBodyBytes,
// DrainTimeout and Logf go to the server.Shell, with its defaults.
type Config struct {
	// Addr is the listen address; port 0 picks a free port.
	Addr string
	// Backends are the single-node backend addresses (host:port). At
	// least Replication backends are required.
	Backends []string
	// Replication is how many backends hold each record. Writes need a
	// majority of replicas (Replication/2+1) to acknowledge; reads
	// stay complete as long as fewer than Replication backends are
	// unreachable.
	Replication int
	// FanoutTimeout bounds each per-backend request inside a fan-out,
	// so one stuck backend delays a scatter-gather by at most this.
	FanoutTimeout time.Duration
	// HealthInterval is the /healthz probe period; a backend that stays
	// down is reprobed at up to ten times it. Negative means no
	// background probing: only traffic (or a test, by hand) feeds the
	// breakers.
	HealthInterval time.Duration
	// DownAfter / UpAfter are the breaker's hysteresis widths:
	// consecutive failed calls before a backend is marked down,
	// consecutive successes before it is marked up again.
	DownAfter int
	UpAfter   int
	// HintsDir, when set, makes hinted handoff durable: hints queued
	// for replicas that missed a quorum-acked write are appended to
	// CRC-framed per-backend files under this directory and reloaded
	// when the coordinator restarts. Empty keeps hints in memory only.
	HintsDir string
	// HintTTL bounds how long a hint waits for its backend before it
	// expires (the anti-entropy sweep is the backstop past that).
	HintTTL time.Duration
	// HintInterval is the hint drainer's scan period. Negative disables
	// the background drainer (tests drive it by hand); zero means
	// DefaultHintInterval.
	HintInterval time.Duration
	// RepairInterval, when positive, runs a full anti-entropy repair
	// sweep (the same walk POST /v1/admin/repair does) this often.
	// Zero disables periodic sweeps; the admin endpoint still works.
	RepairInterval time.Duration
	// MaxInFlight bounds concurrently served coordinator requests: the
	// shell's limiter, the coordinator's one admission control.
	MaxInFlight int
	// RetryBudget and RetryRefillPerSec size the coordinator-wide retry
	// token bucket (see DefaultRetryBudget). Every retried backend call
	// across search retry waves, hint replays, and repair traffic spends
	// a token; an empty bucket denies the retry and the caller degrades.
	// Zero means the defaults.
	RetryBudget       int
	RetryRefillPerSec float64
	// MaxBatch caps records per ingest request, mirroring the backends'
	// limit so the coordinator rejects oversized batches itself.
	MaxBatch int
	// MaxBodyBytes caps request body size.
	MaxBodyBytes int64
	// DrainTimeout bounds how long shutdown waits for in-flight
	// requests.
	DrainTimeout time.Duration
	// Logf, when set, receives one-line operational events. nil means
	// silent.
	Logf func(format string, args ...any)
}

// Coordinator serves the /v1 API by fanning out to backends. Build one
// with New, then Listen and Serve: the same server.Shell lifecycle a
// backend has. Call Close when done to stop the background repair and
// hint workers and release the hint files.
type Coordinator struct {
	cfg     Config
	shell   *server.Shell
	client  *client
	metrics *clusterMetrics
	hints   *hintStore
	repairs *repairQueue
	budget  *retryBudget
	// searchTurn rotates which backends a search's first wave leaves out.
	searchTurn atomic.Uint64
	// probeBase is the reprobe interval a breaker's backoff starts from
	// and returns to: HealthInterval, or its default when that is
	// negative (no probe loop; tests and traffic still feed the breakers).
	probeBase time.Duration

	// mu guards the membership view: the placement ring, the optional
	// migration target ring, and the backend list. Request paths take
	// a snapshot under RLock and work from it; only setMembers writes
	// a new view.
	mu       sync.RWMutex
	ring     *Ring
	next     *Ring // target ring while a join/drain streams; nil otherwise
	backends []*backend
	byAddr   map[string]*backend

	// rebalanceMu serializes join/drain; TryLock turns a concurrent
	// attempt into an immediate 409 instead of a queued surprise.
	rebalanceMu sync.Mutex

	hintKick chan struct{} // nudges the drainer on a down->up transition
	stop     chan struct{}
	stopOnce sync.Once
}

// New validates cfg and builds a Coordinator. The hint drainer and the
// read-repair worker start immediately (Serve only adds the listener,
// the breakers' probe loop, and the optional periodic sweep).
func New(cfg Config) (*Coordinator, error) {
	if cfg.Replication == 0 {
		cfg.Replication = DefaultReplication
	}
	if cfg.FanoutTimeout <= 0 {
		cfg.FanoutTimeout = DefaultFanoutTimeout
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = DefaultDownAfter
	}
	if cfg.UpAfter <= 0 {
		cfg.UpAfter = DefaultUpAfter
	}
	if cfg.HintTTL <= 0 {
		cfg.HintTTL = DefaultHintTTL
	}
	if cfg.HintInterval == 0 {
		cfg.HintInterval = DefaultHintInterval
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	if cfg.RetryRefillPerSec <= 0 {
		cfg.RetryRefillPerSec = DefaultRetryRefillPerSec
	}
	ring, err := NewRing(cfg.Backends, cfg.Replication)
	if err != nil {
		return nil, err
	}
	hints, err := newHintStore(cfg.HintsDir)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg: cfg,
		shell: server.NewShell(server.Config{
			Addr: cfg.Addr, MaxInFlight: cfg.MaxInFlight, MaxBatch: cfg.MaxBatch,
			MaxBodyBytes: cfg.MaxBodyBytes, DrainTimeout: cfg.DrainTimeout, Logf: cfg.Logf,
		}),
		client:    newClient(len(ring.Backends())),
		metrics:   new(clusterMetrics),
		hints:     hints,
		repairs:   newRepairQueue(),
		budget:    newRetryBudget(cfg.RetryBudget, cfg.RetryRefillPerSec),
		probeBase: cfg.HealthInterval,
		hintKick:  make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	if c.probeBase < 0 {
		c.probeBase = DefaultHealthInterval
	}
	fleet := make([]*backend, 0, len(ring.Backends()))
	for _, addr := range ring.Backends() {
		fleet = append(fleet, newBackend(addr))
	}
	c.setMembers(ring, nil, fleet)
	// Every call's outcome, request or probe, drives the backend's
	// breaker. A backend 504 means a propagated deadline died downstream;
	// count it.
	c.client.observe = func(b *backend, err error) {
		var berr *BackendError
		if errors.As(err, &berr) && berr.Status == http.StatusGatewayTimeout {
			c.metrics.deadlineExceeded.Add(1)
		}
		c.observeBreaker(b, requestOK(err))
	}
	c.shell.Mount(c.routes())
	go c.repairLoop()
	if cfg.HintInterval > 0 {
		go c.hintLoop()
	}
	return c, nil
}

// Close stops the background hint and repair workers and closes the
// hint files. It does not touch an active Serve loop — cancel Serve's
// context for that.
func (c *Coordinator) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	return c.hints.close()
}

// Ring returns the coordinator's current placement ring, so tests and
// tools can compute replica sets the way the coordinator does.
func (c *Coordinator) Ring() *Ring {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring
}

// rings snapshots the placement view: the authoritative ring and, while
// a join/drain is streaming, the migration target (nil otherwise).
func (c *Coordinator) rings() (ring, next *Ring) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring, c.next
}

// backendList snapshots the backend list. The slice is replaced, never
// mutated in place, so iterating the snapshot without the lock is safe.
func (c *Coordinator) backendList() []*backend {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.backends
}

// lookup resolves a backend address to its state, or nil if it has
// left the fleet.
func (c *Coordinator) lookup(addr string) *backend {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byAddr[addr]
}

// Handler returns the coordinator's HTTP handler (routes behind the
// shell's middleware), for tests and embedding.
func (c *Coordinator) Handler() http.Handler { return c.shell.Handler() }

// quorum is the write quorum: a majority of the replica set.
func (c *Coordinator) quorum() int { return c.cfg.Replication/2 + 1 }

// Listen binds cfg.Addr and returns the bound address. It must be
// called once, before Serve.
func (c *Coordinator) Listen() (net.Addr, error) { return c.shell.Listen() }

// Serve serves on the listener bound by Listen until ctx is canceled,
// then drains in-flight requests for up to DrainTimeout. The probe
// loop and the periodic repair sweep run for exactly the lifetime of
// the serve loop.
func (c *Coordinator) Serve(ctx context.Context) error {
	hctx, stopHealth := context.WithCancel(context.Background())
	defer stopHealth()
	if c.cfg.HealthInterval > 0 {
		go c.probeLoop(hctx)
	}
	if c.cfg.RepairInterval > 0 {
		go c.sweepLoop(hctx)
	}
	return c.shell.Serve(ctx)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// clusterMetrics are the coordinator's own counters, beside the shell's
// request counters: one set for the API surface it serves, one for the
// fan-out behavior behind it. All lock-free on the hot path; stats()
// reads each exactly once.
type clusterMetrics struct {
	searches       atomic.Int64
	ingestRequests atomic.Int64
	recordsRouted  atomic.Int64 // record-replica assignments routed by ingest
	deletes        atomic.Int64

	searchBackendCalls atomic.Int64 // backend calls made by searches, both waves

	retries        atomic.Int64 // backend calls retried after a failed first wave
	partials       atomic.Int64 // search responses degraded to partial
	quorumFailures atomic.Int64 // records that missed their write quorum

	deadlineExceeded atomic.Int64 // backend calls that died on a propagated deadline (504s)

	joins             atomic.Int64 // committed ring joins
	drains            atomic.Int64 // committed ring drains
	rebalanceFailures atomic.Int64 // join/drain attempts aborted before commit
	rebalanceMoved    atomic.Int64 // records whose replica set changed across commits
	rebalanceCopied   atomic.Int64 // record copies streamed to new replicas
	rebalanceActive   atomic.Bool  // a join/drain stream is in flight
}
