package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"sketchengine/internal/fault"
)

// DefaultSegmentRows is how many records a shard's mutable head holds
// before it is sealed into an immutable on-disk segment. 4096 rows of
// 128 full-width slots is a 4 MiB segment — big enough that segment
// count stays low, small enough that a snapshot's incremental cost
// (seal head + rewrite manifest) is bounded.
const DefaultSegmentRows = 4096

// tierState is the index-wide half of tiered storage: where segments
// live, how big they grow, the per-query rescore budget, and the
// counters behind TierStats. An in-memory index has one too, with no
// directory and segmentRows 0: its full stores keep every row in their
// heads, never sealed. Counters are atomics because shard scans update
// them concurrently without holding ix.mu.
type tierState struct {
	dataDir     string // "" on an in-memory index
	segmentRows int
	budget      atomic.Int64 // max full-width rescores per shard per query; 0 = unbounded

	scanned    atomic.Uint64 // rows prefilter-scored
	survived   atomic.Uint64 // rows past the prefilter's matched-count floor
	rescored   atomic.Uint64 // rows actually read full-width
	readErrors atomic.Uint64 // full-width reads that failed (row skipped)
	sealed     atomic.Bool   // a segment was sealed since segments/ was last fsynced

	// Write-ahead-log state: the index's one log, attached once the
	// directory has a committed manifest (SaveDir/Open) and nil
	// otherwise; the mutation sequence its frames carry; and the
	// counters behind WALStats.
	wal           atomic.Pointer[shardWAL]
	walSeq        atomic.Uint64 // last sequence number handed out
	walAppends    atomic.Uint64 // frames appended since open
	walFsyncs     atomic.Uint64 // fsyncs performed by sync
	walFsyncNanos atomic.Uint64 // total nanoseconds spent in fsync
	walReplayed   atomic.Uint64 // frames replayed by the last open
	walTornBytes  atomic.Uint64 // torn-tail bytes truncated by the last open
}

func (t *tierState) segmentsDir() string { return filepath.Join(t.dataDir, "segments") }

// TierStats is the observable state of tiered storage, surfaced through
// Stats and /stats. ResidentBytes is what tiered search keeps on the
// heap (packed prefilter + unsealed heads); MappedBytes is the
// full-width payload served from the page cache via mmap (0 when every
// segment is on the pread fallback). SurvivalRate is
// PrefilterSurvived/PrefilterScanned over the process lifetime — the
// fraction of rows whose packed count cleared the query's floor and
// went on to candidate ranking.
type TierStats struct {
	PrefilterBits     int     `json:"prefilter_bits"`
	Budget            int     `json:"budget"`
	SegmentRows       int     `json:"segment_rows"`
	Segments          int     `json:"segments"`
	ResidentBytes     int64   `json:"resident_bytes" prom:"resident_bytes" help:"Heap bytes tiered search keeps resident: packed prefilter plus unsealed heads."`
	MappedBytes       int64   `json:"mapped_bytes" prom:"mapped_bytes" help:"Full-width segment bytes served through mmap."`
	HeadBytes         int64   `json:"head_bytes"`
	PrefilterScanned  uint64  `json:"prefilter_scanned" prom:"prefilter_scanned_total" help:"Rows scored by the packed prefilter scan."`
	PrefilterSurvived uint64  `json:"prefilter_survived" prom:"prefilter_survived_total" help:"Rows whose packed score cleared the query's minimum similarity."`
	Rescored          uint64  `json:"rescored" prom:"rescored_total" help:"Rows rescored at full width."`
	ReadErrors        uint64  `json:"read_errors" prom:"tier_read_errors_total" help:"Full-width reads that failed (row skipped)."`
	SurvivalRate      float64 `json:"survival_rate"`
}

// fullStore is one shard's full-width signature tier: sealed immutable
// segments on disk plus a mutable head holding rows not yet sealed — on
// an in-memory index, every row. Shard-local row i lives in the head
// when i >= headBase and in exactly one segment otherwise (segments tile
// [0, headBase) in base order). Like sigArena it is not internally
// locked; the owning shard serializes access.
type fullStore struct {
	slots    int
	shardID  int
	tier     *tierState
	segs     []*segment // sorted by base, contiguous
	head     []uint64   // headRows() * slots full-width words
	headBase int        // shard-local row index of head[0]
}

func newFullStore(slots, shardID int, tier *tierState) *fullStore {
	return &fullStore{slots: slots, shardID: shardID, tier: tier}
}

func (fs *fullStore) headRows() int {
	if fs.slots == 0 {
		return 0
	}
	return len(fs.head) / fs.slots
}

func (fs *fullStore) segPath(base int) string {
	return filepath.Join(fs.tier.segmentsDir(), fmt.Sprintf("shard-%04d-%010d.seg", fs.shardID, base))
}

// freshSegPath returns a segment path for base that no existing file
// occupies. After a compaction the canonical name may still be taken by
// an old-generation segment the committed manifest references (it is
// only swept after the next manifest commit), so sealing probes
// generation-suffixed names until one is free.
func (fs *fullStore) freshSegPath(base int) (string, error) {
	path := fs.segPath(base)
	for gen := 1; ; gen++ {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path, nil
		} else if err != nil {
			return "", fmt.Errorf("tier: %w", err)
		}
		if gen > 9999 {
			return "", fmt.Errorf("tier: no free segment name for shard %d base %d", fs.shardID, base)
		}
		path = filepath.Join(fs.tier.segmentsDir(), fmt.Sprintf("shard-%04d-%010d-c%04d.seg", fs.shardID, base, gen))
	}
}

// append adds one full-width signature as the store's next row, sealing
// the head into a segment when it reaches a positive segmentRows. A
// failed seal (disk full, permissions) rolls the row back out of the
// head so the caller can fail the whole add without registering the
// record.
func (fs *fullStore) append(sig []uint64) error {
	fs.head = append(fs.head, sig...)
	if fs.tier.segmentRows > 0 && fs.headRows() >= fs.tier.segmentRows {
		if err := fs.sealHead(); err != nil {
			fs.head = fs.head[:len(fs.head)-fs.slots]
			return err
		}
	}
	return nil
}

// sealHead writes the head rows (however many there are — SaveDir seals
// partial heads so snapshots only ever append) into a new segment file,
// reopens it through the normal verified path, and starts a fresh head.
// Sealing nothing is a no-op.
func (fs *fullStore) sealHead() error {
	rows := fs.headRows()
	if rows == 0 {
		return nil
	}
	if err := fault.Check("segment.seal"); err != nil {
		return fmt.Errorf("tier: seal shard %d: %w", fs.shardID, err)
	}
	path, err := fs.freshSegPath(fs.headBase)
	if err != nil {
		return err
	}
	crc, err := writeSegment(path, fs.headBase, fs.slots, rows, fs.head)
	if err != nil {
		return err
	}
	sg, err := openSegment(path, fs.headBase, fs.slots, rows, crc)
	if err != nil {
		return err
	}
	fs.tier.sealed.Store(true)
	fs.segs = append(fs.segs, sg)
	fs.headBase += rows
	fs.head = fs.head[:0]
	return nil
}

// row returns the full-width words of shard-local row i: a head slice,
// a slice of the mmap'd segment payload, or (pread fallback) sc's
// decode buffer. Head and mmap slices alias live storage — callers hold
// the shard lock across use, like sigArena.row.
func (fs *fullStore) row(i int, sc *rowScratch) ([]uint64, error) {
	if i >= fs.headBase {
		off := (i - fs.headBase) * fs.slots
		return fs.head[off : off+fs.slots : off+fs.slots], nil
	}
	// Binary search for the segment covering i (segments tile the range
	// in base order).
	lo, hi := 0, len(fs.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if fs.segs[mid].base+fs.segs[mid].rows <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(fs.segs) || fs.segs[lo].base > i {
		return nil, fmt.Errorf("tier: shard %d row %d is in no segment", fs.shardID, i)
	}
	sg := fs.segs[lo]
	return sg.rowWords(i-sg.base, sc)
}

func (fs *fullStore) headBytes() int64 { return int64(len(fs.head)) * 8 }

func (fs *fullStore) mappedBytes() int64 {
	var n int64
	for _, sg := range fs.segs {
		n += sg.mappedBytes()
	}
	return n
}

func (fs *fullStore) close() error {
	var first error
	for _, sg := range fs.segs {
		if err := sg.close(); err != nil && first == nil {
			first = err
		}
	}
	fs.segs = nil
	return first
}
