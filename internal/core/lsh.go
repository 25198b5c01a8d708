package core

import (
	"fmt"
	"math"
	"math/bits"
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

// bandKeyMask keeps the part of a slot value a band key hashes: its low
// byte, twice the prefilter's nibble. Rebuild reads it from the full-width
// store, not the arena, so unrelated rows collide in a band of r slots
// with probability 2^-8r however narrow the prefilter: about n/1024
// candidates a query at 64 x 2, rather than the n/5 that nibble keys give.
const bandKeyMask = 0xff

// bandKey hashes band `band` of sig into a bucket key, masking every
// slot value to bandKeyMask first, so a query, an add and a rebuild —
// all of which hold full-width values — agree on their buckets. The band
// index is folded in so identical row values in different bands do not
// collide into one bucket.
func (p LSHParams) bandKey(band int, sig []uint64) uint64 {
	h := mix64(uint64(band)*0x9e3779b97f4a7c15 + 0x8445d61a4e774912)
	for _, v := range sig[band*p.RowsPerBand : (band+1)*p.RowsPerBand] {
		h = mix64(h ^ (v & bandKeyMask))
	}
	return h
}

// postingTable is the index's one LSH posting structure, shared by all
// shards and all bands (bandKey folds the band number into the key), in
// two levels. Sealed is what rebuild makes of every live row: one word a
// posting, fp<<dirBits | shard<<rowBits | row, in the order of (its key's
// 32-bit fingerprint, shard, row), behind a directory from a fingerprint's
// top dirBits bits to where that cell's entries — at most 8 buckets' —
// start: 4 bytes a posting and 4 a cell. An entry's tag, the bits above
// dirBits, holds the rest of its fingerprint, so a bucket is the run of
// entries with one tag in one cell. Keys sharing a fingerprint share a bucket,
// which can only add a candidate, and every candidate is rescored. The
// delta holds the rows added since: a slot array keyed by the whole key
// over chains of postings in an append-only arena, in insertion order.
// A query costs two lookups per band however many shards there are, and
// no array holds a pointer for the collector to trace. Postings are only
// ever added — a tombstoned row keeps its (every scoring path skips dead
// rows) — until rebuild starts over.
//
// mu guards every field, though add reads params before taking it (see
// add): shard.add inserts while holding its shard lock (order: shard,
// then table), probe takes mu alone.
type postingTable struct {
	mu      sync.RWMutex
	params  LSHParams
	stripes int // the index's shard count: the most adds in flight at once

	dir        []uint32 // 1<<dirBits + 1 offsets into packed: cell c's entries are packed[dir[c]:dir[c+1]]
	dirBits    uint     // minDirBits at least, and at least the widest sealed posting's bits
	packed     []uint32 // a word a sealed posting: fp<<dirBits | shard<<rowBits | row
	rowBits    uint     // bits of the largest stripe's row numbers as of the last rebuild
	spilled    bool     // a stripe had more rows than postingBits can name: nothing is sealed
	sealedUsed int      // sealed buckets
	seals      uint64   // rebuilds so far

	slots []postSlot // power-of-two length, at most 3/4 occupied
	posts []posting  // posts[0] is the nil sentinel: index 0 ends a chain
	used  int        // occupied slots = distinct delta buckets
}

// postSlot is one delta bucket; head == 0 marks an empty slot.
type postSlot struct {
	key        uint64
	head, tail int32
}

type posting struct{ shard, row, next int32 }

const (
	minDirBits   = 8
	minPostSlots = 64   // an empty delta's slot count
	sealMinDelta = 4096 // the fewest delta postings SaveDir reseals for; see sealDue
)

// Tests lower these: maxPostings bounds sealed plus delta postings (the
// delta links by int32, the directory's offsets are uint32), and
// postingBits is the widest a sealed posting may be.
var maxPostings, postingBits = math.MaxInt32, 31

func newPostingTable(p LSHParams, stripes int) *postingTable {
	return &postingTable{params: p, stripes: stripes, slots: make([]postSlot, minPostSlots), posts: make([]posting, 1),
		dir: make([]uint32, 1<<minDirBits+1), dirBits: minDirBits}
}

// find returns the index of key's delta slot, or of the empty slot where
// key would be inserted.
func (t *postingTable) find(key uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := key & mask
	for t.slots[i].head != 0 && t.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// insert appends (shard, row) to key's delta chain, doubling the slot
// array when the new bucket would fill it past 3/4. Callers hold mu.
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

// full reports whether a row from every stripe at once — the adds that
// can sit between this check and their inserts — would not fit.
func (t *postingTable) full() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return 1+len(t.packed)+len(t.posts)+t.params.Bands*t.stripes > maxPostings
}

// add inserts one row's postings into the delta, one per band of sig.
// The band keys are hashed before the lock, so concurrent adds share
// only the inserts. Reading params unlocked is safe: rebuild, its only
// writer, runs with Index.writeMu held exclusively, and every add holds
// writeMu shared (or owns a table nobody else sees yet).
func (t *postingTable) add(shard, row int32, sig []uint64) {
	keys := make([]uint64, 0, 32) // the default banding's count: on the stack
	for band := 0; band < t.params.Bands; band++ {
		keys = append(keys, t.params.bandKey(band, sig))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, key := range keys {
		t.insert(key, shard, row)
	}
}

// probe looks every key up once in each level and routes each posting
// to its shard's scratch (sized by the shard's beginProbe), deduped
// through the candidate bitset; it returns the number of candidates
// gathered. A posting for a row appended after the scratch's snapshot is
// skipped and counts as unprobed, as scanRestAppend's complement expects.
func (t *postingTable) probe(keys []uint64, scratch []shardScratch) (total int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	postMask, rowMask := uint32(1)<<t.dirBits-1, uint32(1)<<t.rowBits-1
	for _, key := range keys {
		cell, want := t.dir[key>>(64-t.dirBits):], uint32(key>>32)<<t.dirBits
		for _, e := range t.packed[cell[0]:cell[1]] { // a cell's entries rise
			if tag := e &^ postMask; tag > want {
				break
			} else if tag == want {
				total += scratch[e&postMask>>t.rowBits].offer(int32(e & rowMask))
			}
		}
		for p := t.slots[t.find(key)].head; p != 0; p = t.posts[p].next {
			e := t.posts[p]
			total += scratch[e.shard].offer(e.row)
		}
	}
	return total
}

// rebuild replaces the table's contents with the postings of every live
// row of shards under banding p, sealed, and an empty delta: how Open
// (fresh arenas), Rebucket (new keys), compaction (new row numbers) and
// a due reseal all get their table. A posting takes the bits of the
// shard count and of the largest stripe's row numbers; if that is more
// than postingBits, every row is filed in the delta instead. Keys
// are hashed from each row's full-width signature (a heap or mmap'd
// slice); a row the store cannot read files nowhere and counts as a read
// error, as a search skips it. Callers exclude every add, delete,
// compaction and snapshot meanwhile — Index.writeMu held exclusively, or
// an index nobody else sees yet — so shard state is read unlocked;
// searches probe the old contents until the swap.
func (t *postingTable) rebuild(p LSHParams, shards []*shard) {
	nt, live, most := newPostingTable(p, len(shards)), 0, 1
	for _, sh := range shards {
		live += len(sh.names) - sh.deadRows
		most = max(most, len(sh.names))
	}
	nt.rowBits = uint(bits.Len(uint(most - 1)))
	nt.spilled = bits.Len(uint(len(shards)-1))+int(nt.rowBits) > postingBits
	var ents []uint64 // fingerprint<<32 | posting, in (shard, row) order
	if !nt.spilled {
		ents = make([]uint64, 0, live*p.Bands)
	}
	var sc rowScratch
	for si, sh := range shards {
		for i := range sh.names {
			if sh.rowDead(int32(i)) {
				continue
			}
			sig, err := sh.full.row(i, &sc)
			if err != nil {
				sh.full.tier.readErrors.Add(1)
				continue
			}
			if nt.spilled {
				nt.add(int32(si), int32(i), sig)
				continue
			}
			for band := 0; band < p.Bands; band++ {
				ents = append(ents, p.bandKey(band, sig)&^math.MaxUint32|uint64(si)<<nt.rowBits|uint64(i))
			}
		}
	}
	nt.seal(ents)
	t.mu.Lock()
	t.params, t.slots, t.posts, t.used = p, nt.slots, nt.posts, nt.used
	t.dir, t.dirBits, t.packed, t.rowBits, t.spilled = nt.dir, nt.dirBits, nt.packed, nt.rowBits, nt.spilled
	t.sealedUsed = nt.sealedUsed
	t.seals++
	t.mu.Unlock()
}

// seal makes ents — fingerprint<<32 | posting — the sealed level of the
// empty table t: a stable sort by fingerprint leaves each bucket
// contiguous and in the order given, one pass counts buckets and finds
// the widest posting to size the directory, and one writes both front to
// back. dirBits is never below the widest posting's bits, so an entry's
// tag and cell together always hold its whole fingerprint.
func (t *postingTable) seal(ents []uint64) {
	ents = sortByFingerprint(ents, make([]uint64, len(ents)))
	buckets, widest := 0, uint32(0)
	for i, e := range ents {
		if i == 0 || e>>32 != ents[i-1]>>32 {
			buckets++
		}
		widest = max(widest, uint32(e))
	}
	t.dirBits = max(minDirBits, uint(bits.Len(uint(buckets/8))), uint(bits.Len32(widest)))
	t.dir, t.packed, t.sealedUsed = make([]uint32, 1<<t.dirBits+1), make([]uint32, len(ents)), buckets
	cell := 0 // the next directory entry to fill
	for i, e := range ents {
		fp := uint32(e >> 32)
		for ; cell <= int(fp>>(32-t.dirBits)); cell++ {
			t.dir[cell] = uint32(i)
		}
		t.packed[i] = fp<<t.dirBits | uint32(e)
	}
	for ; cell < len(t.dir); cell++ {
		t.dir[cell] = uint32(len(ents))
	}
}

// sortByFingerprint sorts a by its top 32 bits, stably, in three 11-bit
// counting passes between a and the equally long tmp, and returns the
// one that ends up sorted.
func sortByFingerprint(a, tmp []uint64) []uint64 {
	const digit = 1<<11 - 1
	for shift := uint(32); shift < 64; shift += 11 {
		var next [digit + 2]int // next[d]: where the next entry with digit d goes
		for _, e := range a {
			next[e>>shift&digit+1]++
		}
		for d := range next[1:] {
			next[d+1] += next[d]
		}
		for _, e := range a {
			tmp[next[e>>shift&digit]] = e
			next[e>>shift&digit]++
		}
		a, tmp = tmp, a
	}
	return a
}

// sealDue reports whether SaveDir should rebuild for the delta's sake: it
// holds sealMinDelta postings and more than a quarter of the sealed
// count, and the last rebuild did not spill.
func (t *postingTable) sealDue() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	delta := len(t.posts) - 1
	return delta >= sealMinDelta && delta*4 > len(t.packed) && !t.spilled
}

// size returns the table's bytes (all four arrays, by capacity), buckets
// (sealed plus delta: one filed in both counts twice), delta postings
// and rebuilds.
func (t *postingTable) size() (bytes int64, buckets, delta int, seals uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	bytes = int64(cap(t.dir)+cap(t.packed))*4 +
		int64(cap(t.slots))*int64(unsafe.Sizeof(postSlot{})) + int64(cap(t.posts))*int64(unsafe.Sizeof(posting{}))
	return bytes, t.sealedUsed + t.used, len(t.posts) - 1, t.seals
}
