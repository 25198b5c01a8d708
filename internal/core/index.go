package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// On-disk format versions of the index directory (MANIFEST.json plus
// binary segment files, written by SaveDir and read by Open; specified
// normatively in docs/FORMAT.md). V6 extends v5 with per-shard
// tombstone lists and a write-ahead log replayed on open; SaveDir
// always writes v6. Versions 1–4 were single-file JSON layouts this
// package no longer reads — `engine import` converts them.
const (
	FormatV5 = 5
	FormatV6 = 6
)

// Metadata describes an index; it is embedded in the directory's
// manifest and kept current as records are added. Format is zero on an
// in-memory index, which has no on-disk form.
type Metadata struct {
	Name          string    `json:"name"`
	Version       string    `json:"version"`
	Format        int       `json:"format,omitempty"`
	CreatedAt     time.Time `json:"created_at"`
	UpdatedAt     time.Time `json:"updated_at"`
	RecordCount   int       `json:"record_count"`
	K             int       `json:"k"`
	SignatureSize int       `json:"signature_size"`
	Scheme        Scheme    `json:"scheme,omitempty"`
	Bits          int       `json:"bits,omitempty"`
	Bands         int       `json:"bands,omitempty"`
	RowsPerBand   int       `json:"rows_per_band,omitempty"`
	Shards        int       `json:"shards,omitempty"`
}

// Index is a store of sketches keyed by record name, striped over N
// independently-locked shards so concurrent adds and probes on
// different stripes never contend. Each shard owns a bit-sliced 4-bit
// prefilter arena (see sigArena) over a full-width store (see
// fullStore); one posting table shared by all of them holds the LSH
// band postings for sub-linear candidate filtering (see postingTable,
// Index.Search). An index is either purely in memory (NewIndex,
// NewIndexWith: the full-width rows stay on the heap and nothing
// persists) or backed by a directory from birth (NewEngine with
// Options.Tiered, or Open). All methods are safe for concurrent use;
// searches and writes wait for a Rebucket or SaveDir in progress. Adds
// are incremental: a sketch whose name is already present is skipped,
// never overwritten.
type Index struct {
	// writeMu is held exclusively by the structural rebuilds (SaveDir's
	// compaction and reseal, Rebucket) and shared by anything that takes
	// a stripe lock more than once and needs the stripe unchanged in
	// between: Add and Delete (the insert, then the count) and Search
	// (the probe, the candidate pass, the complement pass). So searches
	// wait for Rebucket too; its one production caller, serve's retune,
	// runs before serve listens, and searches already wait for SaveDir
	// behind its shard locks. Go's RWMutex is not reentrant: nothing
	// called under a shared hold may take writeMu again, or a SaveDir
	// queued in between deadlocks it. Lock order is writeMu -> ix.mu ->
	// shard.mu -> the posting table's and the WAL's own.
	writeMu sync.RWMutex

	mu     sync.RWMutex  // guards meta and gen
	meta   Metadata      // meta.RecordCount is the live record count
	shards []*shard      // fixed at construction; read without a lock
	posts  *postingTable // the shards' LSH postings and banding; fixed at construction like shards
	gen    uint64        // bumped on every successful Add or Delete; see Generation
	tier   *tierState    // the full stores' shared state; fixed at construction

	compactions   atomic.Uint64 // compaction passes that dropped rows
	compactedRows atomic.Uint64 // tombstoned rows reclaimed by compaction

	// The group commit (see SyncWAL): sweeps of the log are numbered
	// from 1 and run one at a time. sweepMu guards the fields
	// below it and is not held while a sweep runs; sweepsDone is atomic
	// only so that WALTicket need not take it.
	sweepMu     sync.Mutex
	sweepsBegun uint64
	sweepsDone  atomic.Uint64
	sweepEnd    chan struct{} // non-nil while a sweep runs, closed when it ends
	sweepFailed uint64        // the latest sweep that failed, and its error
	sweepErr    error
}

// NewIndex returns an empty in-memory index accepting sketches with the
// given shingle length and signature size, using the default banding
// scheme and shard count. Use NewIndexWith to configure those.
func NewIndex(name string, k, sigSize int) *Index {
	if ix, err := NewIndexWith(name, k, sigSize, DefaultLSHParams(sigSize), DefaultShards); err == nil {
		return ix
	}
	// Non-positive sigSize: keep the old never-fail contract with a
	// placeholder single-band scheme. Such an index rejects every add
	// (Add refuses a negative size and an empty signature alike) and
	// every search (checkSearchArgs), so the scheme is never probed.
	return newIndex(name, k, sigSize, LSHParams{Bands: 1, RowsPerBand: 1}, DefaultShards)
}

// NewIndexWith returns an empty in-memory index with an explicit LSH
// banding scheme and shard count. Like every index it scans a 4-bit
// prefilter and scores at full width; its full-width rows stay on the
// heap.
func NewIndexWith(name string, k, sigSize int, lsh LSHParams, shards int) (*Index, error) {
	if _, err := NewLSHParams(lsh.Bands, lsh.RowsPerBand, sigSize); err != nil {
		return nil, fmt.Errorf("index %q: %w", name, err)
	}
	if err := checkShards(shards); err != nil {
		return nil, fmt.Errorf("index %q: %w", name, err)
	}
	return newIndex(name, k, sigSize, lsh, shards), nil
}

// newIndex builds the empty in-memory index from checked geometry.
func newIndex(name string, k, sigSize int, lsh LSHParams, shards int) *Index {
	now := time.Now().UTC()
	posts := newPostingTable(lsh, shards)
	tier := &tierState{}
	return &Index{
		meta: Metadata{
			Name:          name,
			Version:       Version,
			CreatedAt:     now,
			UpdatedAt:     now,
			K:             k,
			SignatureSize: sigSize,
			Scheme:        SchemeOPH,
			Bits:          manifestBits,
			Bands:         lsh.Bands,
			RowsPerBand:   lsh.RowsPerBand,
			Shards:        shards,
		},
		shards: newShards(shards, posts, sigSize, tier),
		posts:  posts,
		tier:   tier,
	}
}

// maxShards bounds the shard count, which arrives from flags, manifests
// and import files: every shard gets its own stripe state, and Open
// looks for a stripe log per shard, so an absurd value must fail as an
// error before the first record is read.
const maxShards = 1 << 12

func checkShards(shards int) error {
	if shards <= 0 || shards > maxShards {
		return fmt.Errorf("shard count must be in [1, %d], got %d", maxShards, shards)
	}
	return nil
}

// ErrIndexFull is what Add wraps once the LSH posting table has no
// address space left for another row's postings.
var ErrIndexFull = errors.New("lsh posting table is full")

// SketchError is what Add returns for a sketch the index cannot hold as
// given: the caller's mistake, where any other error from an add is a
// storage or commit failure.
type SketchError struct{ msg string }

func (e *SketchError) Error() string { return e.msg }

func sketchErrorf(format string, args ...any) error {
	return &SketchError{fmt.Sprintf(format, args...)}
}

// Add inserts s if no record with the same name exists. It reports
// whether the sketch was added; false with a nil error means the name
// already existed and the add was skipped. The owning shard keeps the
// full-width signature in its full store and the low nibble of every
// slot in its prefilter arena.
func (ix *Index) Add(s *Sketch) (bool, error) {
	if s.Name == "" {
		return false, sketchErrorf("index: sketch has empty name")
	}
	if s.K != ix.meta.K {
		return false, sketchErrorf("index %q: sketch k %d does not match index k %d",
			ix.meta.Name, s.K, ix.meta.K)
	}
	if len(s.Signature) != ix.meta.SignatureSize {
		return false, sketchErrorf("index %q: signature size %d does not match index size %d",
			ix.meta.Name, len(s.Signature), ix.meta.SignatureSize)
	}
	if len(s.Signature) == 0 {
		return false, sketchErrorf("index %q: sketch has an empty signature", ix.meta.Name)
	}
	// Shared writeMu spans the shard insert and the count, so a
	// structural rebuild (Rebucket, SaveDir) can never observe a record
	// that is in a shard but not yet counted.
	ix.writeMu.RLock()
	defer ix.writeMu.RUnlock()
	// Same-named adds always land on the same shard, whose lock
	// serializes the existence check against the insert.
	added, err := ix.shards[shardFor(s.Name, len(ix.shards))].add(s)
	if err != nil {
		return false, fmt.Errorf("index %q: %w", ix.meta.Name, err)
	}
	if !added {
		return false, nil
	}
	ix.mu.Lock()
	ix.meta.RecordCount++
	ix.meta.UpdatedAt = time.Now().UTC()
	ix.gen++
	ix.mu.Unlock()
	return true, nil
}

// Delete tombstones the record named name and reports whether it was
// present. The record disappears from every lookup and search
// immediately; its arena row is reclaimed by the next compaction (see
// SaveDir). On a WAL-attached tiered index the tombstone is
// logged, so an acknowledged delete survives a crash the same way an
// acknowledged add does — take a WALTicket first and call SyncWAL with
// it before acking (Engine.Delete does). Deleting frees the name: a
// later Add with the same name succeeds and is a fresh record.
func (ix *Index) Delete(name string) (bool, error) {
	if name == "" {
		return false, fmt.Errorf("index: delete with empty name")
	}
	ix.writeMu.RLock()
	defer ix.writeMu.RUnlock()
	if !ix.shards[shardFor(name, len(ix.shards))].delete(name) {
		return false, nil
	}
	ix.mu.Lock()
	ix.meta.RecordCount--
	ix.meta.UpdatedAt = time.Now().UTC()
	ix.gen++
	ix.mu.Unlock()
	return true, nil
}

// WALTicket opens a write: the writer takes it before its first Add or
// Delete and hands it to SyncWAL once they are all in. It is the number
// of sweeps finished so far. A log that fails a write drops every frame
// buffered in it, whoever appended them, so a failed sweep may have cost
// any writer whose ticket predates that sweep's end its frames, and no
// writer whose ticket does not.
func (ix *Index) WALTicket() uint64 { return ix.sweepsDone.Load() }

// SyncWAL is the index's one commit point, the durability barrier every
// ack waits on. It returns once a sweep that began after the caller's
// last append has finished; a sweep flushes the log and fsyncs it once,
// whichever stripes its frames came from, and pays nothing when no frame
// is buffered. Sweeps run one at a time, and a writer that queued behind
// a running one either runs the next or finds that another queued writer
// already has — the group commit: one fsync for all of them, adds and
// deletes alike. A sweep that failed after ticket was taken fails the
// caller, whether or not the caller's frames were in the write that
// failed (see WALTicket); the mutations themselves stay in memory
// and reach disk with the next snapshot. With no WAL attached — an
// in-memory index, or a directory that has not committed its first
// manifest — a sweep finds nothing to do.
func (ix *Index) SyncWAL(ticket uint64) error {
	ix.sweepMu.Lock()
	defer ix.sweepMu.Unlock()
	for need := ix.sweepsBegun + 1; ix.sweepsDone.Load() < need; {
		if end := ix.sweepEnd; end != nil {
			// A sweep is running, begun before need was read or by another
			// waiter since: look again when it ends.
			ix.sweepMu.Unlock()
			<-end
			ix.sweepMu.Lock()
			continue
		}
		ix.sweepsBegun++
		ix.sweepEnd = make(chan struct{})
		ix.sweepMu.Unlock()
		var err error
		if w := ix.tier.wal.Load(); w != nil {
			err = w.sync()
		}
		ix.sweepMu.Lock()
		if err != nil {
			ix.sweepFailed, ix.sweepErr = ix.sweepsBegun, err
		}
		ix.sweepsDone.Store(ix.sweepsBegun)
		close(ix.sweepEnd)
		ix.sweepEnd = nil
	}
	if ix.sweepFailed > ticket {
		return ix.sweepErr
	}
	return nil
}

// Tombstones returns the number of tombstoned (deleted but not yet
// compacted) arena rows and the total arena row count.
func (ix *Index) Tombstones() (dead, rows int) {
	for _, sh := range ix.shards {
		d, r := sh.deadCount()
		dead += d
		rows += r
	}
	return dead, rows
}

// DefaultCompactThreshold is the tombstone ratio (dead rows over total
// rows, per shard) at which SaveDir compacts a stripe before
// snapshotting it.
const DefaultCompactThreshold = 0.25

// WALStats is the observable write-ahead-log state, surfaced through
// Stats and /stats. Frames and Bytes are the log depth since the last
// snapshot truncated it; FsyncNanos over Fsyncs is the mean fsync
// latency the ack path is paying; FsyncSeconds is FsyncNanos in the
// unit /metrics reports.
type WALStats struct {
	Frames         int64   `json:"frames" prom:"wal_frames" help:"Frames in the WAL since the last snapshot."`
	Bytes          int64   `json:"bytes" prom:"wal_bytes" help:"Bytes in the WAL since the last snapshot."`
	Appends        uint64  `json:"appends" prom:"wal_appends_total" help:"Frames appended to the WAL."`
	Fsyncs         uint64  `json:"fsyncs" prom:"wal_fsyncs_total" help:"WAL fsync batches."`
	FsyncNanos     uint64  `json:"fsync_nanos"`
	FsyncSeconds   float64 `json:"-" prom:"wal_fsync_seconds_total" help:"Time spent in WAL fsyncs."`
	ReplayedFrames uint64  `json:"replayed_frames" prom:"wal_replayed_frames_total" help:"Frames replayed at the last open."`
	TornBytes      uint64  `json:"torn_bytes" prom:"wal_torn_bytes_total" help:"Torn-tail bytes truncated at the last open."`
}

// WAL returns a snapshot of write-ahead-log state, or nil when no WAL
// is attached (in-memory index, or no committed manifest yet).
func (ix *Index) WAL() *WALStats {
	tier := ix.tier
	w := tier.wal.Load()
	if w == nil {
		return nil
	}
	st := &WALStats{
		Appends:        tier.walAppends.Load(),
		Fsyncs:         tier.walFsyncs.Load(),
		FsyncNanos:     tier.walFsyncNanos.Load(),
		ReplayedFrames: tier.walReplayed.Load(),
		TornBytes:      tier.walTornBytes.Load(),
	}
	st.FsyncSeconds = float64(st.FsyncNanos) / 1e9
	st.Frames, st.Bytes = w.Depth()
	return st
}

// Generation returns a counter that increments on every successful Add
// or Delete. It is the snapshot hook for long-lived servers: remember the
// generation at the last save and skip the next one when it has not
// moved, so idle periods never rewrite an unchanged manifest.
func (ix *Index) Generation() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.gen
}

// Occupancy returns the number of records held by each shard stripe, in
// stripe order. It is an observability aid: a heavily skewed occupancy
// means one stripe's lock is carrying most of the write traffic.
func (ix *Index) Occupancy() []int {
	out := make([]int, len(ix.shards))
	for i, sh := range ix.shards {
		out[i] = sh.size()
	}
	return out
}

// ArenaStats is the memory footprint of the packed signature store,
// summed over every shard arena. BytesPerRecord is SignatureBytes over
// the record count (0 for an empty index); Utilization is live bytes
// over allocated capacity (the last chunk of each arena is filled only
// as rows arrive).
type ArenaStats struct {
	Bits           int     `json:"bits"`
	SignatureBytes int64   `json:"signature_bytes"`
	CapacityBytes  int64   `json:"capacity_bytes"`
	BytesPerRecord float64 `json:"bytes_per_record"`
	Utilization    float64 `json:"utilization"`
}

// Arena reports the signature arenas' aggregate memory footprint.
func (ix *Index) Arena() ArenaStats {
	st := ArenaStats{Bits: prefilterBits}
	records := 0
	for _, sh := range ix.shards {
		used, capacity := sh.arenaBytes()
		st.SignatureBytes += used
		st.CapacityBytes += capacity
		records += sh.size()
	}
	if records > 0 {
		st.BytesPerRecord = float64(st.SignatureBytes) / float64(records)
	}
	if st.CapacityBytes > 0 {
		st.Utilization = float64(st.SignatureBytes) / float64(st.CapacityBytes)
	}
	return st
}

// ScanKernel names the kernel this index's full-stripe scans run, chosen
// from the CPU: "avx512", "avx2" or "portable".
func (ix *Index) ScanKernel() string {
	return scanKernel()
}

// Has reports whether a record named name is indexed, without
// reconstructing its sketch.
func (ix *Index) Has(name string) bool {
	return ix.shards[shardFor(name, len(ix.shards))].has(name)
}

// Get reconstructs the sketch named name, full width, from its shard's
// full store, or returns nil if absent (or if its row fails to read).
func (ix *Index) Get(name string) *Sketch {
	return ix.shards[shardFor(name, len(ix.shards))].getSketch(name, ix.meta.K)
}

// Len returns the number of indexed records.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.meta.RecordCount
}

// Metadata returns a snapshot of the index metadata.
func (ix *Index) Metadata() Metadata {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.meta
}

// LSHParams returns the index's banding scheme: the posting table's.
func (ix *Index) LSHParams() LSHParams {
	ix.posts.mu.RLock()
	defer ix.posts.mu.RUnlock()
	return ix.posts.params
}

// ShardCount returns the number of lock stripes.
func (ix *Index) ShardCount() int { return len(ix.shards) }

// Rebucket retunes the LSH banding scheme without re-sketching. It is
// safe on a live index: writers and searches wait on writeMu while it
// runs. Only the posting table is rebuilt (off to the side, then
// swapped in), so row numbering, full-width stores, and the WAL all
// carry over; the shard count, fixed at creation, is untouched.
func (ix *Index) Rebucket(lsh LSHParams) error {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	if _, err := NewLSHParams(lsh.Bands, lsh.RowsPerBand, ix.meta.SignatureSize); err != nil {
		return fmt.Errorf("index %q: rebucket: %w", ix.meta.Name, err)
	}
	// Tombstoned rows drop out of the new postings for free.
	ix.posts.rebuild(lsh, ix.shards)
	ix.mu.Lock()
	ix.meta.Bands = lsh.Bands
	ix.meta.RowsPerBand = lsh.RowsPerBand
	ix.mu.Unlock()
	return nil
}
