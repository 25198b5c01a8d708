package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sketchengine/internal/core"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultMaxInFlight  = 64
	DefaultMaxBatch     = 1024
	DefaultMaxBodyBytes = 8 << 20
	DefaultQueueDepth   = 64
	DefaultDrainTimeout = 10 * time.Second
)

// Config configures a Server. Zero values fall back to the package
// defaults above. Where snapshots go is not configured here: they go to
// the served index's own directory, and an in-memory index is served
// without snapshots.
type Config struct {
	// Addr is the listen address, e.g. ":8080". Port 0 picks a free
	// port; Listen returns the bound address.
	Addr string
	// DataDir, when set, is a cross-check: New fails unless it is the
	// served index's directory (core.Index.DataDir).
	DataDir string
	// SnapshotEvery is the periodic snapshot interval; 0 disables the
	// timer (a final snapshot is still written on shutdown). Snapshots
	// are skipped while the index generation is unchanged.
	SnapshotEvery time.Duration
	// MaxInFlight bounds concurrently-served requests; excess requests
	// queue on the limiter until a slot frees or the client gives up.
	MaxInFlight int
	// MaxBatch caps records per ingest request (oversized requests get
	// 413) and bounds how many records one coalesced AddBatch absorbs.
	MaxBatch int
	// MaxBodyBytes caps request body size.
	MaxBodyBytes int64
	// QueueDepth is the ingest queue capacity in pending requests; an
	// ingest that finds it full is refused with 429 and a Retry-After
	// header rather than parked.
	QueueDepth int
	// DrainTimeout bounds how long shutdown waits for in-flight
	// requests before closing connections.
	DrainTimeout time.Duration
	// Logf, when set, receives one-line operational events (snapshot
	// results, shutdown progress). nil means silent.
	Logf func(format string, args ...any)
}

// Server serves one core.Engine over HTTP.
type Server struct {
	cfg     Config
	eng     *core.Engine
	ingest  *batcher
	metrics *metrics
	handler http.Handler

	lis net.Listener

	// dir is the served index's directory, the snapshot destination;
	// empty for an in-memory index, which is never snapshotted.
	dir      string
	snapMu   sync.Mutex // serializes snapshots
	savedGen uint64     // index generation at the last snapshot

	closeOnce sync.Once
	closeErr  error
}

// New builds a Server around eng, applying defaults for zero Config
// fields. The engine must not be shared with writers outside the
// server while it is serving.
func New(eng *core.Engine, cfg Config) (*Server, error) {
	if eng == nil {
		return nil, errors.New("server: nil engine")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	dir := eng.Index().DataDir()
	if cfg.DataDir != "" && cfg.DataDir != dir {
		return nil, fmt.Errorf("server: DataDir %s does not match the index's data directory %q", cfg.DataDir, dir)
	}
	s := &Server{
		cfg:      cfg,
		eng:      eng,
		metrics:  newMetrics(),
		dir:      dir,
		savedGen: eng.Index().Generation(),
	}
	if dir != "" {
		if _, err := os.Stat(filepath.Join(dir, core.ManifestFile)); err != nil {
			// No committed manifest yet: commit one now, synchronously.
			// The manifest rename is what attaches the per-shard WALs, and
			// every mutation acknowledged from the first request onward
			// must hit a WAL to survive a crash — so the index must be on
			// disk before the listener is.
			if err := eng.Index().SaveDir(); err != nil {
				return nil, fmt.Errorf("server: initial snapshot of %s: %w", dir, err)
			}
			s.savedGen = eng.Index().Generation()
		}
	}
	s.ingest = newBatcher(eng, cfg.QueueDepth, cfg.MaxBatch, s.metrics)
	s.handler = s.limit(s.count(s.routes()))
	return s, nil
}

// Handler returns the server's HTTP handler (routes wrapped in the
// counting and concurrency-limit middleware), for tests and embedding.
func (s *Server) Handler() http.Handler { return s.handler }

// Engine returns the served engine.
func (s *Server) Engine() *core.Engine { return s.eng }

// Listen binds cfg.Addr and returns the bound address (useful with
// port 0). It must be called once, before Serve.
func (s *Server) Listen() (net.Addr, error) {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.lis = lis
	return lis.Addr(), nil
}

// Serve serves on the listener bound by Listen until ctx is canceled,
// then drains: in-flight requests get up to DrainTimeout to finish, the
// ingest queue is flushed, and a final snapshot is written. It returns
// nil on a clean drain.
func (s *Server) Serve(ctx context.Context) error {
	if s.lis == nil {
		return errors.New("server: Serve called before Listen")
	}
	hs := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(s.lis) }()

	var tick <-chan time.Time
	if s.dir != "" && s.cfg.SnapshotEvery > 0 {
		t := time.NewTicker(s.cfg.SnapshotEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			if wrote, err := s.Snapshot(); err != nil {
				s.logf("snapshot error: %v", err)
			} else if wrote {
				s.logf("snapshot written to %s (generation %d)", s.dir, s.savedGeneration())
			}
		case err := <-errc:
			// Listener failure outside a requested shutdown; still flush
			// the queue and snapshot so acknowledged records survive.
			return errors.Join(err, s.Close())
		case <-ctx.Done():
			s.logf("shutdown requested, draining (timeout %s)", s.cfg.DrainTimeout)
			drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
			err := hs.Shutdown(drainCtx)
			cancel()
			<-errc // always http.ErrServerClosed after Shutdown
			// Handlers have returned, so no new ingest can be enqueued:
			// flushing the queue and snapshotting now covers every
			// acknowledged record.
			if cerr := s.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			s.logf("drained")
			return err
		}
	}
}

// Close flushes the ingest queue and writes a final snapshot. Serve
// calls it during shutdown; call it directly only when using Handler
// without Serve, after all requests have finished. Safe to call more
// than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.ingest.close()
		if _, err := s.Snapshot(); err != nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// Snapshot saves the index into its directory (core.Index.SaveDir:
// each cycle seals the shards' unsealed rows into new immutable segment
// files and atomically rewrites the small manifest, so the cost tracks
// the ingest delta rather than the index size) if it changed since the
// last snapshot, reporting whether anything was written. It is safe for
// concurrent use and a no-op on an in-memory index.
func (s *Server) Snapshot() (bool, error) {
	if s.dir == "" {
		return false, nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	gen := s.eng.Index().Generation()
	if gen == s.savedGen {
		return false, nil
	}
	if err := s.eng.Index().SaveDir(); err != nil {
		return false, err
	}
	// Records added between the generation read and the save are in the
	// snapshot but not in savedGen; the next snapshot simply covers them
	// again.
	s.savedGen = gen
	s.metrics.snapshots.Add(1)
	return true, nil
}

func (s *Server) savedGeneration() uint64 {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.savedGen
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
