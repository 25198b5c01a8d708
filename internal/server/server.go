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
	"sync/atomic"
	"time"

	"sketchengine/internal/core"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultMaxInFlight  = 64
	DefaultMaxBatch     = 1024
	DefaultMaxBodyBytes = 8 << 20
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
	// MaxBatch caps records per ingest or replicate request (oversized
	// requests get 413) and per page of GET /v1/records.
	MaxBatch int
	// MaxBodyBytes caps request body size.
	MaxBodyBytes int64
	// DrainTimeout bounds how long shutdown waits for in-flight
	// requests before closing connections.
	DrainTimeout time.Duration
	// Logf, when set, receives one-line operational events (snapshot
	// results, shutdown progress). nil means silent.
	Logf func(format string, args ...any)
}

// Server serves one core.Engine over HTTP.
type Server struct {
	shell   *Shell // holds the Config, defaults applied
	eng     *core.Engine
	metrics *metrics

	// writeMu is the shutdown gate: the write handlers hold it shared
	// across the engine call and its ack, Close takes it exclusively to
	// set closed before the final snapshot. So that snapshot covers every
	// acked write, and none is acked after it — when the caller may
	// already have closed the index and its WAL.
	writeMu sync.RWMutex
	closed  bool

	// dir is the served index's directory, the snapshot destination;
	// empty for an in-memory index, which is never snapshotted.
	dir      string
	snapMu   sync.Mutex // serializes snapshots
	savedGen uint64     // index generation at the last snapshot

	closeOnce sync.Once
	closeErr  error
}

// metrics are the engine-facing counters the handlers keep, beside the
// shell's request counters; stats() reads each exactly once.
type metrics struct {
	searches       atomic.Int64
	deletes        atomic.Int64
	ingestRequests atomic.Int64
	recordsAdded   atomic.Int64
	replicated     atomic.Int64 // sketches accepted via /v1/admin/replicate
	batches        atomic.Int64 // engine add calls made for ingest requests
	batchedRecords atomic.Int64 // records across those calls
	snapshots      atomic.Int64

	deadlineExceeded atomic.Int64 // searches aborted by an expired deadline (504s)
	searchCanceled   atomic.Int64 // searches aborted because the caller went away
}

func newMetrics() *metrics { return new(metrics) }

// New builds a Server around eng, applying defaults for zero Config
// fields. The engine must not be shared with writers outside the
// server while it is serving.
func New(eng *core.Engine, cfg Config) (*Server, error) {
	if eng == nil {
		return nil, errors.New("server: nil engine")
	}
	dir := eng.Index().DataDir()
	if cfg.DataDir != "" && cfg.DataDir != dir {
		return nil, fmt.Errorf("server: DataDir %s does not match the index's data directory %q", cfg.DataDir, dir)
	}
	sh := NewShell(cfg)
	s := &Server{
		shell:    sh,
		eng:      eng,
		metrics:  newMetrics(),
		dir:      dir,
		savedGen: eng.Index().Generation(),
	}
	if dir != "" {
		if _, err := os.Stat(filepath.Join(dir, core.ManifestFile)); err != nil {
			// No committed manifest yet: commit one now, synchronously.
			// The manifest rename is what attaches the WAL, and every
			// mutation acknowledged from the first request onward must
			// hit it to survive a crash — so the index must be on disk
			// before the listener is.
			if err := eng.Index().SaveDir(); err != nil {
				return nil, fmt.Errorf("server: initial snapshot of %s: %w", dir, err)
			}
			s.savedGen = eng.Index().Generation()
		}
	}
	sh.Mount(s.routes())
	return s, nil
}

// Handler returns the server's HTTP handler (routes behind the shell's
// middleware), for tests and embedding.
func (s *Server) Handler() http.Handler { return s.shell.Handler() }

// Engine returns the served engine.
func (s *Server) Engine() *core.Engine { return s.eng }

// Listen binds cfg.Addr and returns the bound address (useful with
// port 0). It must be called once, before Serve.
func (s *Server) Listen() (net.Addr, error) { return s.shell.Listen() }

// Serve serves on the listener bound by Listen until ctx is canceled,
// then drains: in-flight requests get up to DrainTimeout to finish,
// writes are refused from then on, and a final snapshot is written. It
// returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context) error {
	stop := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		s.snapshotLoop(stop)
	}()
	err := s.shell.Serve(ctx)
	close(stop)
	<-stopped
	// Close's snapshot covers every acknowledged write — after a listener
	// failure as much as after a requested shutdown.
	return errors.Join(err, s.Close())
}

// snapshotLoop writes a snapshot every SnapshotEvery until stop closes.
func (s *Server) snapshotLoop(stop <-chan struct{}) {
	if s.dir == "" || s.shell.cfg.SnapshotEvery <= 0 {
		return
	}
	t := time.NewTicker(s.shell.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if wrote, err := s.Snapshot(); err != nil {
				s.shell.logf("snapshot error: %v", err)
			} else if wrote {
				s.shell.logf("snapshot written to %s (generation %d)", s.dir, s.savedGeneration())
			}
		}
	}
}

// Close refuses writes from here on (503 shutting_down, for a straggler
// that outlived a timed-out drain), waits for those in flight, and
// writes a final snapshot. Serve calls it during shutdown; call it
// directly only when using Handler without Serve. Safe to call more than
// once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.writeMu.Lock()
		s.closed = true
		s.writeMu.Unlock()
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
