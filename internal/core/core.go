package core

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Version identifies the engine build. It is reported by the CLI and
// stamped into saved index metadata.
const Version = "0.14.0"

// Options configures an Engine. Zero values fall back to the package
// defaults (DefaultK, DefaultSignatureSize, GOMAXPROCS workers, DefaultLSHParams banding, DefaultShards stripes).
type Options struct {
	// K is the shingle (k-mer) length used when sketching records.
	K int
	// SignatureSize is the number of minhash slots per signature.
	SignatureSize int
	// Threads bounds the worker pool; <= 0 means GOMAXPROCS.
	Threads int
	// IndexName names the index created by the engine.
	IndexName string
	// Bands and RowsPerBand set the LSH banding scheme; both zero means
	// DefaultLSHParams(SignatureSize). When set, Bands*RowsPerBand must
	// equal SignatureSize.
	Bands       int
	RowsPerBand int
	// Shards is the number of lock stripes in the index; <= 0 means
	// DefaultShards.
	Shards int
	// Bits is accepted for older callers: 0 or 8, the width the manifest
	// records. The prefilter holds the low nibble of every slot (b-bit
	// minwise hashing: a 16x smaller working set than the full minhash
	// values, compared 16 slots per word op), and every score is
	// recomputed at full width, so the cut is exact.
	Bits int
	// Tiered backs the new index with the directory DataDir: full-width
	// signatures go to mmap'd on-disk segments, and SaveDir persists it
	// (see docs/ARCHITECTURE.md). False means a purely in-memory index
	// that keeps its full-width signatures on the heap and that nothing
	// persists.
	Tiered bool
	// DataDir roots the index directory. Required when Tiered.
	DataDir string
	// SegmentRows is how many records accumulate in a shard's mutable
	// head before it is sealed into an immutable segment file; <= 0
	// means DefaultSegmentRows. Tiered only.
	SegmentRows int
	// Budget caps full-width rescores per shard per query; 0 means
	// unbounded, and results are then exact.
	Budget int
}

// Engine ties the three pipeline stages together behind one entry point.
// It is safe for concurrent use: the index is internally locked and the
// sketcher and pool are stateless after construction.
type Engine struct {
	sketcher *Sketcher
	index    *Index
	pool     *Pool
	// queries recycles query sketches (name cleared, signature buffer
	// kept) so steady-state searches never allocate the ~1KB signature
	// per request; see Search.
	queries sync.Pool
}

// NewEngine builds an Engine from opts, applying defaults for zero fields.
func NewEngine(opts Options) (*Engine, error) {
	if opts.K == 0 {
		opts.K = DefaultK
	}
	if opts.SignatureSize == 0 {
		opts.SignatureSize = DefaultSignatureSize
	}
	if opts.IndexName == "" {
		opts.IndexName = "default"
	}
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	lsh := DefaultLSHParams(opts.SignatureSize)
	if opts.Bands != 0 || opts.RowsPerBand != 0 {
		var err error
		if lsh, err = NewLSHParams(opts.Bands, opts.RowsPerBand, opts.SignatureSize); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	sk, err := NewSketcher(opts.K, opts.SignatureSize)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := validBits(opts.Bits); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	ix, err := NewIndexWith(opts.IndexName, opts.K, opts.SignatureSize, lsh, opts.Shards)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if opts.Tiered {
		if err := ix.attachTier(opts.DataDir, opts.SegmentRows); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	ix.SetBudget(opts.Budget)
	return &Engine{
		sketcher: sk,
		index:    ix,
		pool:     NewPool(opts.Threads),
	}, nil
}

// NewEngineWithIndex wraps an existing index (e.g. one returned by
// Open), deriving the sketcher parameters from the index metadata so
// queries are always sketched compatibly.
func NewEngineWithIndex(ix *Index, threads int) (*Engine, error) {
	meta := ix.Metadata()
	sk, err := NewSketcher(meta.K, meta.SignatureSize)
	if err != nil {
		return nil, fmt.Errorf("engine: index %q: %w", meta.Name, err)
	}
	return &Engine{sketcher: sk, index: ix, pool: NewPool(threads)}, nil
}

// Sketcher returns the engine's sketcher.
func (e *Engine) Sketcher() *Sketcher { return e.sketcher }

// Index returns the engine's index.
func (e *Engine) Index() *Index { return e.index }

// Pool returns the engine's worker pool.
func (e *Engine) Pool() *Pool { return e.pool }

// Delete removes the record named name from the index, reporting
// whether it was present. Like AddBatch, a nil error on a WAL-attached
// tiered index is durable before Delete returns, a false return's too:
// a delete whose commit failed is already gone from memory, so its
// retry answers false and must not say so before a snapshot holds it.
func (e *Engine) Delete(name string) (bool, error) {
	ticket := e.index.WALTicket()
	deleted, err := e.index.Delete(name)
	if err != nil {
		return false, err
	}
	return deleted, e.index.SyncWAL(ticket)
}

// AddBatch sketches recs over the worker pool and inserts them with
// AddSketches: oks[i] reports whether recs[i] was added, and false means
// a record with the same name already existed and was skipped. On a
// WAL-attached tiered index a nil error is durable: every logged frame
// has been fsynced before AddBatch returns.
func (e *Engine) AddBatch(recs []Record) ([]bool, error) {
	sketches := make([]*Sketch, len(recs))
	e.pool.Map(len(recs), func(i int) { sketches[i] = e.sketcher.Sketch(recs[i]) })
	return e.AddSketches(sketches)
}

// AddSketches is the one insert-and-commit path under every add entry
// point; called directly it is the replication path, where another node
// already computed the signatures and ships them over the wire. The
// inserts land on the index's lock stripes concurrently, and one commit
// (Index.SyncWAL) covers them all: a nil error means every frame logged
// is fsynced. The ticket is taken before the first insert, so a sweep
// that fails meanwhile, dropping frames, fails this batch too. oks[i]
// reports whether sketches[i] was newly added; false means the name was
// already indexed, which makes replication idempotent, or repeated
// earlier in the batch — the first occurrence wins, as under sequential
// adds. On an error the flags still say what is in memory, but nothing
// may be acknowledged.
func (e *Engine) AddSketches(sketches []*Sketch) ([]bool, error) {
	if len(sketches) == 0 {
		return nil, nil
	}
	// Drop in-batch repeats before the concurrent inserts so which
	// record wins never depends on goroutine scheduling.
	seen := make(map[string]struct{}, len(sketches))
	unique := make([]int, 0, len(sketches))
	for i, s := range sketches {
		if _, dup := seen[s.Name]; !dup {
			seen[s.Name] = struct{}{}
			unique = append(unique, i)
		}
	}
	oks := make([]bool, len(sketches))
	errs := make([]error, len(unique))
	ticket := e.index.WALTicket()
	e.pool.Map(len(unique), func(j int) {
		oks[unique[j]], errs[j] = e.index.Add(sketches[unique[j]])
	})
	for _, err := range errs {
		if err != nil {
			return oks, err
		}
	}
	return oks, e.index.SyncWAL(ticket)
}

// Stats is a point-in-time snapshot of engine and index state, exposed
// for observability surfaces (the HTTP /stats endpoint, dashboards).
// ShardOccupancy has one entry per lock stripe; heavy skew means one
// stripe's lock carries most of the write traffic.
type Stats struct {
	IndexName      string     `json:"index_name"`
	Records        int        `json:"records" prom:"records" help:"Live records in the index."`
	K              int        `json:"k"`
	SignatureSize  int        `json:"signature_size"`
	Scheme         Scheme     `json:"scheme"`
	Bits           int        `json:"bits"`
	ScanKernel     string     `json:"scan_kernel"` // "avx512", "avx2" or "portable"; see Index.ScanKernel
	SignatureBytes int64      `json:"signature_bytes"`
	BytesPerRecord float64    `json:"bytes_per_record"`
	ArenaUtilized  float64    `json:"arena_utilization"`
	Bands          int        `json:"bands"`
	RowsPerBand    int        `json:"rows_per_band"`
	LSHThreshold   float64    `json:"lsh_threshold"`
	LSHBytes       int64      `json:"lsh_bytes" prom:"lsh_bytes" help:"Bytes held by the LSH posting table (sealed directory and buckets, delta slots and postings, by capacity)."`
	LSHBuckets     int        `json:"lsh_buckets" prom:"lsh_buckets" help:"LSH band buckets in the posting table, sealed plus delta."`
	LSHDelta       int        `json:"lsh_delta_postings" prom:"lsh_delta_postings" help:"LSH postings added since the table was last sealed."`
	LSHSeals       uint64     `json:"lsh_seals" prom:"lsh_seals_total" help:"Rebuilds of the LSH posting table into its sealed form: open, compaction, reseal."`
	Shards         int        `json:"shards"`
	ShardOccupancy []int      `json:"shard_occupancy"`
	Mode           SearchMode `json:"mode"` // what an empty Query.Mode searches in: always ModeLSH
	Generation     uint64     `json:"generation"`
	CreatedAt      time.Time  `json:"created_at"`
	UpdatedAt      time.Time  `json:"updated_at"`
	// DeadRows counts tombstoned (deleted, not yet compacted) arena
	// rows; TombstoneRatio is DeadRows over total arena rows.
	// Compactions and CompactedRows count compaction passes and the
	// rows they reclaimed.
	DeadRows       int     `json:"dead_rows,omitempty" prom:"dead_rows" help:"Tombstoned rows awaiting compaction."`
	TombstoneRatio float64 `json:"tombstone_ratio,omitempty" prom:"tombstone_ratio" help:"Dead rows as a fraction of all rows."`
	Compactions    uint64  `json:"compactions,omitempty" prom:"compactions_total" help:"Shard compactions run."`
	CompactedRows  uint64  `json:"compacted_rows,omitempty" prom:"compacted_rows_total" help:"Dead rows reclaimed by compaction."`
	// Tier and WAL are present only on directory-backed indexes.
	Tier *TierStats `json:"tier,omitempty"`
	WAL  *WALStats  `json:"wal,omitempty"`
}

// Stats returns a consistent-enough snapshot of the engine for
// monitoring: each field is read atomically, but concurrent adds may
// land between reads, so Records and ShardOccupancy can differ by
// in-flight records.
func (e *Engine) Stats() Stats {
	meta := e.index.Metadata()
	lsh := e.index.LSHParams()
	arena := e.index.Arena()
	dead, rows := e.index.Tombstones()
	lshBytes, lshBuckets, lshDelta, lshSeals := e.index.posts.size()
	var tombRatio float64
	if rows > 0 {
		tombRatio = float64(dead) / float64(rows)
	}
	return Stats{
		IndexName:      meta.Name,
		Records:        meta.RecordCount,
		K:              meta.K,
		SignatureSize:  meta.SignatureSize,
		Scheme:         meta.Scheme,
		Bits:           arena.Bits,
		ScanKernel:     e.index.ScanKernel(),
		SignatureBytes: arena.SignatureBytes,
		BytesPerRecord: arena.BytesPerRecord,
		ArenaUtilized:  arena.Utilization,
		Bands:          lsh.Bands,
		RowsPerBand:    lsh.RowsPerBand,
		LSHThreshold:   lsh.Threshold(),
		LSHBytes:       lshBytes,
		LSHBuckets:     lshBuckets,
		LSHDelta:       lshDelta,
		LSHSeals:       lshSeals,
		Shards:         e.index.ShardCount(),
		ShardOccupancy: e.index.Occupancy(),
		Mode:           ModeLSH,
		Generation:     e.index.Generation(),
		CreatedAt:      meta.CreatedAt,
		UpdatedAt:      meta.UpdatedAt,
		DeadRows:       dead,
		TombstoneRatio: tombRatio,
		Compactions:    e.index.compactions.Load(),
		CompactedRows:  e.index.compactedRows.Load(),
		Tier:           e.index.Tier(),
		WAL:            e.index.WAL(),
	}
}

// Search sketches rec and returns its top entries under q (see
// Index.Search). The query sketch comes from a pool and is emitted with
// SketchInto, so a steady-state search sketches into a warm buffer
// instead of allocating a signature per request. The scoring loops poll
// ctx, so a serving layer aborts in-flight scoring once the caller's
// deadline passes or the client disconnects; a background context adds
// no overhead.
func (e *Engine) Search(ctx context.Context, rec Record, q Query) ([]Result, error) {
	sk, _ := e.queries.Get().(*Sketch)
	if sk == nil || len(sk.Signature) != e.sketcher.SignatureSize() {
		sk = &Sketch{Signature: make([]uint64, e.sketcher.SignatureSize())}
	}
	sk.Name = rec.Name
	sk.K = e.sketcher.K()
	sk.Shingles = e.sketcher.SketchInto(sk.Signature, rec)
	res, err := e.index.Search(ctx, sk, q, e.pool)
	// Results carry only the name string; the signature buffer never
	// escapes the search, so the sketch can be recycled.
	sk.Name = ""
	e.queries.Put(sk)
	return res, err
}
