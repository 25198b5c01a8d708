package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sketchengine/internal/framelog"
	"sketchengine/internal/server"
)

// Hinted handoff: when a write reaches its quorum but some replica
// missed it, the coordinator records a hint — enough to replay the
// write later — instead of silently leaving that replica behind. The
// drainer replays hints in order once the backend's breaker closes
// again, so a restarted replica converges without any manual
// repair. Hints expire after HintTTL (the anti-entropy sweep is the
// backstop for anything older).
//
// With HintsDir set, each backend's hints live in one framelog.Log
// (docs/FORMAT.md, "Hint log"): the same framed file as the core WAL,
// with a header of magic "SKHL", u32 version, u32 addrLen, addr, and a
// frame body of
//
//	u64 expiresUnixNano | u8 op | u32 nameLen | name | u32 dataLen | data
//
// all little-endian. op=add carries the record payload (the backend
// re-sketches it deterministically); op=delete carries the tombstone.
// Replayed hints are removed by rewriting the file through a temp-file
// rename, so a crash mid-drain re-replays (adds and deletes are both
// idempotent on the backend).
const (
	hintMagic   = "SKHL"
	hintVersion = 1

	hintOpAdd    = 1
	hintOpDelete = 2
)

// hint is one deferred write for a backend that missed it.
type hint struct {
	op      byte
	name    string
	data    string // op=add only: the record payload
	expires int64  // unix nanos
}

// hintLog is one backend's pending hints, oldest first, plus the open
// durable log when the store has a directory.
type hintLog struct {
	log   *framelog.Log // nil = memory only
	hints []hint
}

// hintStore holds every backend's pending hints. All methods are safe
// for concurrent use; the mutex spans file appends so the on-disk
// order matches the replay order.
type hintStore struct {
	dir string // "" = memory only

	mu   sync.Mutex
	logs map[string]*hintLog

	queued   atomic.Int64 // hints ever enqueued
	replayed atomic.Int64 // hints successfully replayed to their backend
	expired  atomic.Int64 // hints dropped past their TTL
	dropped  atomic.Int64 // hints discarded: backend left the ring, or undecodable on load
}

// newHintStore builds the store, loading any hint files a previous
// coordinator left under dir (empty dir keeps hints in memory only).
func newHintStore(dir string) (*hintStore, error) {
	s := &hintStore{dir: dir, logs: make(map[string]*hintLog)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: hints dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: hints dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".hint" {
			continue
		}
		// The file name carries the address (hintPath), so the whole
		// header is known before the file is read — even an empty one.
		stem := strings.TrimSuffix(e.Name(), ".hint")
		addr, err := url.PathUnescape(stem[:max(0, len(stem)-17)])
		if err != nil || hintPath(dir, addr) != filepath.Join(dir, e.Name()) {
			return nil, fmt.Errorf("cluster: hints: %s is not named for a backend address", e.Name())
		}
		if s.logs[addr], err = s.open(addr); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// hintPath names addr's hint file: the address sanitized for the
// filesystem plus a hash suffix so distinct addresses never collide.
func hintPath(dir, addr string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(addr))
	return filepath.Join(dir, fmt.Sprintf("%s-%016x.hint", url.PathEscape(addr), h.Sum64()))
}

// open opens (creating if needed) addr's durable log, when the store
// has a directory, and loads the hints in it. A frame whose CRC matches
// but whose body does not decode is skipped and counted as dropped, and
// the hints after it are kept: unlike the core WAL, which refuses to
// open over such a frame, a hint is never the only copy of an acked
// write (the repair sweep is the backstop), so one bad frame must not
// stop the coordinator or cost the rest of the queue.
func (s *hintStore) open(addr string) (*hintLog, error) {
	if s.dir == "" {
		return &hintLog{}, nil
	}
	hdr := append([]byte(hintMagic), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(hdr[4:], hintVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(addr)))
	log, bodies, _, err := framelog.Open(hintPath(s.dir, addr), append(hdr, addr...), "hint.write", "hint.fsync")
	if err != nil {
		return nil, fmt.Errorf("cluster: hints: %w", err)
	}
	l := &hintLog{log: log}
	for _, body := range bodies {
		if h, ok := decodeHintBody(body); ok {
			l.hints = append(l.hints, h)
		} else {
			s.dropped.Add(1)
		}
	}
	s.queued.Add(int64(len(l.hints)))
	return l, nil
}

// enqueue appends hints for addr, durably when the store has a
// directory (one fsync covers the whole batch). Enqueue failures are
// returned but non-fatal to the caller's write: the write already met
// quorum, a lost hint only delays convergence until the sweep.
func (s *hintStore) enqueue(addr string, hs ...hint) error {
	if len(hs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.logs[addr]
	if l == nil {
		var err error
		if l, err = s.open(addr); err != nil {
			return err
		}
		s.logs[addr] = l
	}
	l.hints = append(l.hints, hs...)
	s.queued.Add(int64(len(hs)))
	if l.log == nil {
		return nil
	}
	for _, h := range hs {
		appendHint(l.log, h)
	}
	if _, err := l.log.Sync(); err != nil {
		return fmt.Errorf("cluster: hints: %w", err)
	}
	return nil
}

// take returns a snapshot of addr's pending hints, oldest first. The
// drainer replays the snapshot in order and then calls commit with how
// many it disposed of; hints enqueued meanwhile sit safely past the
// snapshot.
func (s *hintStore) take(addr string) []hint {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.logs[addr]
	if l == nil || len(l.hints) == 0 {
		return nil
	}
	out := make([]hint, len(l.hints))
	copy(out, l.hints)
	return out
}

// commit removes the first done hints of addr's log (the prefix the
// drainer replayed or expired) once the durable file has been rewritten
// without them. If the rewrite fails, nothing is removed: the file
// still holds them, and so does the queue the next drain replays.
func (s *hintStore) commit(addr string, done int) error {
	if done <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.logs[addr]
	if l == nil {
		return nil
	}
	if done > len(l.hints) {
		done = len(l.hints)
	}
	rest := l.hints[done:]
	if l.log != nil {
		for _, h := range rest {
			appendHint(l.log, h)
		}
		if err := l.log.Rewrite(); err != nil {
			return fmt.Errorf("cluster: hints: %w", err)
		}
	}
	l.hints = append(l.hints[:0], rest...)
	return nil
}

// dropBackend discards addr's hints and file: the backend left the
// ring, nothing will ever replay to it.
func (s *hintStore) dropBackend(addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.logs[addr]
	if l == nil {
		return
	}
	s.dropped.Add(int64(len(l.hints)))
	if l.log != nil {
		l.log.Close()
		_ = os.Remove(hintPath(s.dir, addr))
	}
	delete(s.logs, addr)
}

// depth returns the total pending hints across backends.
func (s *hintStore) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, l := range s.logs {
		n += len(l.hints)
	}
	return n
}

// depthFor returns addr's pending hint count.
func (s *hintStore) depthFor(addr string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l := s.logs[addr]; l != nil {
		return len(l.hints)
	}
	return 0
}

// addrs returns the backends with pending hints, sorted for
// deterministic drain order.
func (s *hintStore) addrs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.logs))
	for addr, l := range s.logs {
		if len(l.hints) > 0 {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

func (s *hintStore) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, l := range s.logs {
		if l.log != nil {
			if err := l.log.Close(); err != nil && first == nil {
				first = err
			}
			l.log = nil
		}
	}
	return first
}

// appendHint appends h as one frame to log's pending buffer.
func appendHint(log *framelog.Log, h hint) {
	log.Append(func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint64(b, uint64(h.expires))
		b = append(b, h.op)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(h.name)))
		b = append(b, h.name...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(h.data)))
		return append(b, h.data...)
	})
}

// decodeHintBody parses one CRC-verified frame body.
func decodeHintBody(body []byte) (hint, bool) {
	if len(body) < 8+1+4 {
		return hint{}, false
	}
	var h hint
	h.expires = int64(binary.LittleEndian.Uint64(body[0:8]))
	h.op = body[8]
	if h.op != hintOpAdd && h.op != hintOpDelete {
		return hint{}, false
	}
	nameLen := int(binary.LittleEndian.Uint32(body[9:13]))
	if nameLen < 0 || 13+nameLen+4 > len(body) {
		return hint{}, false
	}
	h.name = string(body[13 : 13+nameLen])
	dataLen := int(binary.LittleEndian.Uint32(body[13+nameLen : 17+nameLen]))
	if dataLen < 0 || 17+nameLen+dataLen != len(body) {
		return hint{}, false
	}
	h.data = string(body[17+nameLen : 17+nameLen+dataLen])
	return h, h.name != ""
}

// hintLoop is the background drainer: every HintInterval — or sooner,
// when a breaker kicks it on a down->up transition — it
// replays pending hints to every backend currently marked up.
func (c *Coordinator) hintLoop() {
	t := time.NewTicker(c.cfg.HintInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		case <-c.hintKick:
		}
		c.drainHints(context.Background())
	}
}

// kickHintDrain nudges the drainer without blocking; coalescing into
// one buffered token is fine — the drainer scans every backend.
func (c *Coordinator) kickHintDrain() {
	select {
	case c.hintKick <- struct{}{}:
	default:
	}
}

// drainHints replays pending hints to every up backend. Down backends
// keep their queues; a replay failure stops that backend's drain (the
// next pass retries from the failure point, order preserved).
func (c *Coordinator) drainHints(ctx context.Context) {
	for _, addr := range c.hints.addrs() {
		b := c.lookup(addr)
		if b == nil {
			// The backend left the ring while hints were queued.
			c.hints.dropBackend(addr)
			continue
		}
		if !b.up() {
			continue
		}
		c.drainBackendHints(ctx, b)
	}
}

// drainBackendHints replays b's hint queue in order: expired hints are
// counted and skipped, live ones are re-sent as ordinary ingest or
// delete calls (both idempotent). The disposed prefix is committed
// even when a replay fails partway, so progress survives flapping.
func (c *Coordinator) drainBackendHints(ctx context.Context, b *backend) {
	pending := c.hints.take(b.addr)
	if len(pending) == 0 {
		return
	}
	now := time.Now().UnixNano()
	done := 0
	var replayed, expired int64
	for _, h := range pending {
		if h.expires != 0 && h.expires < now {
			expired++
			done++
			continue
		}
		if !c.budget.allow(1) {
			// Retry budget is dry: stop this drain pass and leave the rest
			// queued. The next tick (or kick) resumes from here — hints are
			// exactly the traffic that must not stampede a backend that just
			// came back.
			c.logf("hint drain to %s paused after %d/%d: retry budget exhausted", b.addr, done, len(pending))
			break
		}
		if err := c.replayHint(ctx, b, h); err != nil {
			c.logf("hint replay to %s stalled after %d/%d: %v", b.addr, done, len(pending), err)
			break
		}
		replayed++
		done++
	}
	c.hints.replayed.Add(replayed)
	c.hints.expired.Add(expired)
	if err := c.hints.commit(b.addr, done); err != nil {
		c.logf("hint commit for %s: %v", b.addr, err)
	}
	if replayed > 0 {
		c.logf("replayed %d hints to %s (%d expired, %d still pending)",
			replayed, b.addr, expired, c.hints.depthFor(b.addr))
	}
}

// replayHint re-issues one missed write against b.
func (c *Coordinator) replayHint(ctx context.Context, b *backend, h hint) error {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.FanoutTimeout)
	defer cancel()
	switch h.op {
	case hintOpDelete:
		err := c.client.do(cctx, b, "DELETE", "/v1/records/"+url.PathEscape(h.name), nil, nil)
		if isNotFound(err) {
			// Already gone (or never arrived): the tombstone's goal holds.
			return nil
		}
		return err
	default:
		req := server.IngestRequest{Records: []server.IngestRecord{{Name: h.name, Data: h.data}}}
		return c.client.do(cctx, b, "POST", "/v1/records", &req, nil)
	}
}
