package main

// All construction of the system under test lives in this file: the
// engine, the single-node server, the coordinator and the listeners in
// front of them. A refactor of those APIs touches one place.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"sketchengine/internal/cluster"
	"sketchengine/internal/core"
	"sketchengine/internal/server"
)

const (
	prefilterBits = 8    // RAM prefilter width of every benchmarked engine
	loadBatch     = 2048 // records per bulk-load AddBatch
	walTail       = 1024 // records loaded after the snapshot, so reopening replays real WAL frames
)

// stackSpec is the arrangement a workload runs on.
type stackSpec struct {
	backends      int // engines; more than one puts a coordinator in front
	replication   int
	snapshotEvery time.Duration
}

// setupTimes are the spans recorded around the set-up calls.
type setupTimes struct {
	total    time.Duration
	add      time.Duration // inside Engine.AddBatch, summed over the engines
	snapshot time.Duration // Index.SaveDir, summed over the engines
	open     time.Duration // core.Open, summed over the engines
	replayed uint64        // WAL frames core.Open replayed
}

// node is one engine behind one listener. The listener is opened
// before the engine exists, and the handler filled in later: the
// coordinator's ring hashes backend addresses, and the ring decides
// which records a backend is loaded with.
type node struct {
	dir     string
	lis     net.Listener
	hs      *http.Server
	handler atomic.Pointer[http.Handler]

	eng      *core.Engine
	srv      *server.Server
	stopSnap chan struct{}
	snapDone chan struct{}
}

// stack is a running arrangement: front is the address clients use.
type stack struct {
	spec    stackSpec
	rec     *recorder
	nodes   []*node
	coord   *cluster.Coordinator
	coordHS *http.Server
	front   string
}

// listen starts an http.Server whose handler is looked up per request.
func listen(handler *atomic.Pointer[http.Handler]) (net.Listener, *http.Server, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handler.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { _ = hs.Serve(lis) }() // returns ErrServerClosed after Shutdown, which waits for it
	return lis, hs, nil
}

// serve puts eng behind the node's listener, with the periodic
// snapshot timer server.Serve would run.
func (n *node) serve(eng *core.Engine, spec stackSpec, rec *recorder) error {
	srv, err := server.New(eng, server.Config{DataDir: n.dir})
	if err != nil {
		return err
	}
	n.eng, n.srv = eng, srv
	h := rec.wrap("server", srv.Handler())
	n.handler.Store(&h)
	n.stopSnap, n.snapDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(n.snapDone)
		if spec.snapshotEvery <= 0 {
			<-n.stopSnap
			return
		}
		t := time.NewTicker(spec.snapshotEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_, _ = srv.Snapshot() // a failed snapshot is retried at the next tick and at close
			case <-n.stopSnap:
				return
			}
		}
	}()
	return nil
}

// stop flushes the ingest queue, writes the final snapshot and releases
// the index. The listener stays.
func (n *node) stop() error {
	if n.srv == nil {
		return nil
	}
	close(n.stopSnap)
	<-n.snapDone
	err := errors.Join(n.srv.Close(), n.eng.Index().Close())
	n.srv, n.eng = nil, nil
	return err
}

// reopen loads the node's directory with core.Open and serves it.
func (n *node) reopen(spec stackSpec, rec *recorder, st *setupTimes) error {
	t0 := time.Now()
	ix, err := core.Open(n.dir)
	if err != nil {
		return err
	}
	st.open += time.Since(t0)
	if w := ix.WAL(); w != nil {
		st.replayed += w.ReplayedFrames
	}
	eng, err := core.NewEngineWithIndex(ix, 0)
	if err != nil {
		return err
	}
	return n.serve(eng, spec, rec)
}

// newStack builds the arrangement under dataDir and bulk-loads the
// corpus straight into fresh engines: a single node takes every record,
// a cluster's backends take the records the coordinator's ring places
// on them, so the coordinator finds every record where it would have
// written it. All but the last walTail records go in before the
// snapshot (which also attaches the WAL), the tail through the WAL;
// then every engine is closed without a further snapshot and reopened
// from disk, so the measured phases run on mmap'd segments and a
// replayed WAL, as a restarted deployment would.
func newStack(spec stackSpec, c *corpus, dataDir string, rec *recorder) (*stack, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	s := &stack{spec: spec, rec: rec}
	addrs := make([]string, spec.backends)
	index := make(map[string]int, spec.backends)
	for i := range addrs {
		n := &node{dir: filepath.Join(dataDir, "node"+strconv.Itoa(i))}
		var err error
		if n.lis, n.hs, err = listen(&n.handler); err != nil {
			return s, st, err
		}
		s.nodes = append(s.nodes, n)
		addrs[i] = n.lis.Addr().String()
		index[addrs[i]] = i
	}
	s.front = addrs[0]
	route := func(string) []string { return addrs }
	if spec.backends > 1 {
		if err := s.startCoordinator(addrs); err != nil {
			return s, st, err
		}
		route = s.coord.Ring().Replicas
	}

	loaders := make([]*loader, len(s.nodes))
	for i, n := range s.nodes {
		eng, err := core.NewEngine(core.Options{IndexName: "bench", Tiered: true, DataDir: n.dir, Bits: prefilterBits})
		if err != nil {
			return s, st, err
		}
		loaders[i] = &loader{eng: eng, st: &st}
	}
	each := func(f func(*loader)) {
		for _, l := range loaders {
			f(l)
		}
	}
	i, snapAt := 0, c.records-min(walTail, c.records/2)
	c.walk(func(name string, data []byte) {
		if i == snapAt {
			each((*loader).snapshot)
		}
		for _, addr := range route(name) {
			loaders[index[addr]].add(name, data)
		}
		i++
	})
	var errs []error
	each(func(l *loader) { errs = append(errs, l.close()) })
	if err := errors.Join(errs...); err != nil {
		return s, st, err
	}
	for _, n := range s.nodes {
		if err := n.reopen(spec, rec, &st); err != nil {
			return s, st, err
		}
	}
	st.total = time.Since(t0)
	return s, st, nil
}

// loader batches records into one engine. After the first error it
// does nothing; close reports it.
type loader struct {
	eng   *core.Engine
	batch []core.Record
	st    *setupTimes
	err   error
}

func (l *loader) add(name string, data []byte) {
	if l.batch = append(l.batch, core.Record{Name: name, Data: data}); len(l.batch) == loadBatch {
		l.flush()
	}
}

func (l *loader) flush() {
	if l.err == nil && len(l.batch) > 0 {
		t := time.Now()
		_, l.err = l.eng.AddBatch(l.batch)
		l.st.add += time.Since(t)
	}
	l.batch = l.batch[:0]
}

func (l *loader) snapshot() {
	if l.flush(); l.err == nil {
		t := time.Now()
		l.err = l.eng.Index().SaveDir()
		l.st.snapshot += time.Since(t)
	}
}

func (l *loader) close() error {
	l.flush()
	return errors.Join(l.err, l.eng.Index().Close())
}

// startCoordinator puts a coordinator over the backends' addresses and
// makes it the front door.
func (s *stack) startCoordinator(addrs []string) error {
	coord, err := cluster.New(cluster.Config{
		Backends:       addrs,
		Replication:    s.spec.replication,
		HealthInterval: -1, // live request outcomes drive the breakers; nothing fails here
	})
	if err != nil {
		return err
	}
	s.coord = coord
	var handler atomic.Pointer[http.Handler]
	h := s.rec.wrap("cluster", coord.Handler())
	handler.Store(&h)
	lis, hs, err := listen(&handler)
	if err != nil {
		return err
	}
	s.coordHS, s.front = hs, lis.Addr().String()
	return nil
}

// close shuts the listeners, stops the coordinator's workers and closes
// every engine after its final snapshot. It is safe on a partly built
// stack.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if s.coordHS != nil {
		errs = append(errs, s.coordHS.Shutdown(ctx))
	}
	if s.coord != nil {
		errs = append(errs, s.coord.Close())
	}
	for _, n := range s.nodes {
		if n.hs != nil {
			errs = append(errs, n.hs.Shutdown(ctx))
		}
		errs = append(errs, n.stop())
	}
	return errors.Join(errs...)
}

// diskBytes sums the regular files under every node's data directory.
func (s *stack) diskBytes() (int64, error) {
	var total int64
	for _, n := range s.nodes {
		err := filepath.WalkDir(n.dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err == nil {
				total += info.Size()
			}
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// referenceEngine is the single-node, untiered, full-width engine the
// correctness gate compares answers with.
func referenceEngine() (*core.Engine, error) {
	return core.NewEngine(core.Options{IndexName: "reference"})
}

// openIndexes reopens every node's directory after close, for the
// durability check.
func (s *stack) openIndexes() ([]*core.Index, error) {
	var out []*core.Index
	for _, n := range s.nodes {
		ix, err := core.Open(n.dir)
		if err != nil {
			return out, err
		}
		out = append(out, ix)
	}
	return out, nil
}
