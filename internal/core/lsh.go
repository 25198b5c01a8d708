package core

import (
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// LSHParams describes how signatures are split for locality-sensitive
// hashing: Bands bands of RowsPerBand rows each, with Bands*RowsPerBand
// equal to the signature size. Two records become search candidates of
// each other when at least one band hashes to the same bucket, which
// happens with probability 1-(1-s^r)^b for Jaccard similarity s.
type LSHParams struct {
	Bands       int `json:"bands"`
	RowsPerBand int `json:"rows_per_band"`
}

// NewLSHParams validates a banding scheme against a signature size.
func NewLSHParams(bands, rows, sigSize int) (LSHParams, error) {
	if bands <= 0 || rows <= 0 {
		return LSHParams{}, fmt.Errorf("lsh: bands and rows must be positive, got bands=%d rows=%d", bands, rows)
	}
	if bands*rows != sigSize {
		return LSHParams{}, fmt.Errorf("lsh: bands*rows = %d*%d = %d does not cover signature size %d",
			bands, rows, bands*rows, sigSize)
	}
	return LSHParams{Bands: bands, RowsPerBand: rows}, nil
}

// DefaultLSHParams picks a banding scheme for sigSize, preferring 4
// rows per band (detection threshold ~0.42 at 128 slots) and falling
// back to smaller rows until one divides the signature evenly.
func DefaultLSHParams(sigSize int) LSHParams {
	for _, r := range []int{4, 3, 2} {
		if sigSize >= r && sigSize%r == 0 {
			return LSHParams{Bands: sigSize / r, RowsPerBand: r}
		}
	}
	return LSHParams{Bands: sigSize, RowsPerBand: 1}
}

// Threshold returns the similarity (1/b)^(1/r) at which a pair has
// roughly 1-1/e probability of sharing at least one band bucket; pairs
// well above it are detected almost surely, pairs well below almost
// never.
func (p LSHParams) Threshold() float64 {
	return math.Pow(1/float64(p.Bands), 1/float64(p.RowsPerBand))
}

// bandKey hashes band `band` of sig into a bucket key, masking every
// slot value to the index's packing width first so queries (which carry
// full-width signatures) and packed index rows agree on their buckets.
// The band index is folded in so identical row values in different
// bands do not collide into one bucket. At full width the mask is all
// ones and keys are identical to the pre-arena format.
func (p LSHParams) bandKey(band int, sig []uint64, mask uint64) uint64 {
	h := mix64(uint64(band)*0x9e3779b97f4a7c15 + 0x8445d61a4e774912)
	for _, v := range sig[band*p.RowsPerBand : (band+1)*p.RowsPerBand] {
		h = mix64(h ^ (v & mask))
	}
	return h
}

// postingTable is the index's one LSH posting structure, shared by all
// shards and all bands (bandKey folds the band number into the key): an
// open-addressed, linearly probed slot array maps a bucket key to a
// chain of (shard, row) postings in an append-only arena, in insertion
// order. A query costs one lookup per band however many shards there
// are, and neither array holds a pointer for the collector to trace.
// Postings are only ever added — a tombstoned row keeps its (every
// scoring path skips dead rows) — until rebuild starts over. Indexes
// into posts are int32, which bounds an index at 2^31/Bands rows.
//
// mu guards every field: shard.add inserts while holding its shard lock
// (order: shard, then table), probe takes mu alone.
type postingTable struct {
	mu     sync.RWMutex
	params LSHParams
	slots  []postSlot // power-of-two length, at most 3/4 occupied
	posts  []posting  // posts[0] is the nil sentinel: index 0 ends a chain
	used   int        // occupied slots = distinct buckets
}

// postSlot is one bucket; head == 0 marks an empty slot.
type postSlot struct {
	key        uint64
	head, tail int32
}

type posting struct{ shard, row, next int32 }

const minPostSlots = 64 // an empty table's slot count

func newPostingTable(p LSHParams) *postingTable {
	return &postingTable{params: p, slots: make([]postSlot, minPostSlots), posts: make([]posting, 1)}
}

// find returns the index of key's slot, or of the empty slot where key
// would be inserted.
func (t *postingTable) find(key uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := key & mask
	for t.slots[i].head != 0 && t.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// insert appends (shard, row) to key's chain, doubling the slot array
// when the new bucket would fill it past 3/4. Callers hold mu.
func (t *postingTable) insert(key uint64, shard, row int32) {
	if (t.used+1)*4 > len(t.slots)*3 {
		old := t.slots
		t.slots = make([]postSlot, 2*len(old))
		for _, s := range old {
			if s.head != 0 {
				t.slots[t.find(s.key)] = s
			}
		}
	}
	p := int32(len(t.posts))
	t.posts = append(t.posts, posting{shard: shard, row: row})
	s := &t.slots[t.find(key)]
	if s.head == 0 {
		s.key, s.head = key, p
		t.used++
	} else {
		t.posts[s.tail].next = p
	}
	s.tail = p
}

// add inserts one row's postings, one per band of sig (full-width slot
// values; mask truncates them to the packing width).
func (t *postingTable) add(shard, row int32, sig []uint64, mask uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for band := 0; band < t.params.Bands; band++ {
		t.insert(t.params.bandKey(band, sig, mask), shard, row)
	}
}

// probe looks every key up once and routes each posting to its shard's
// scratch (sized by the shard's beginProbe), deduped through the
// candidate bitset; it returns the number of candidates gathered. A
// posting for a row appended after the scratch's snapshot is skipped
// and counts as unprobed, as scanRestAppend's complement expects.
func (t *postingTable) probe(keys []uint64, scratch []shardScratch) (total int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, key := range keys {
		for p := t.slots[t.find(key)].head; p != 0; p = t.posts[p].next {
			e := t.posts[p]
			sc := &scratch[e.shard]
			if e.row >= sc.rows || bitSet(sc.candSet, e.row) {
				continue
			}
			sc.candSet[e.row>>6] |= 1 << uint(e.row&63)
			sc.cands = append(sc.cands, e.row)
			total++
		}
	}
	return total
}

// rebuild replaces the table's contents with the postings of every live
// row of shards under banding p: how Open (fresh arenas), Rebucket (new
// keys) and compaction (new row numbers) all get their table. Callers
// exclude every add, delete and compaction meanwhile — Index.writeMu
// held exclusively, or an index nobody else sees yet — so shard state
// is read unlocked; searches probe the old contents until the swap.
func (t *postingTable) rebuild(p LSHParams, shards []*shard) {
	live := 0
	for _, sh := range shards {
		live += len(sh.names) - sh.deadRows
	}
	nt := newPostingTable(p)
	nt.posts = make([]posting, 1, 1+live*p.Bands)
	var sig []uint64
	for si, sh := range shards {
		for i := range sh.names {
			if !sh.rowDead(int32(i)) {
				sig = sh.arena.appendUnpacked(sig[:0], i)
				nt.add(int32(si), int32(i), sig, sh.mask)
			}
		}
	}
	t.mu.Lock()
	t.params, t.slots, t.posts, t.used = p, nt.slots, nt.posts, nt.used
	t.mu.Unlock()
}

// size returns the table's bytes (both arrays, by capacity) and buckets.
func (t *postingTable) size() (bytes int64, buckets int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int64(cap(t.slots))*int64(unsafe.Sizeof(postSlot{})) + int64(cap(t.posts))*int64(unsafe.Sizeof(posting{})), t.used
}
