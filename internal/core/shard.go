package core

import (
	"slices"
	"sync"
)

// DefaultShards is the number of lock-striped shards an index uses
// unless configured otherwise.
const DefaultShards = 16

// shard owns one stripe of the index: the records whose names hash to
// it. Record signatures live at full width in a fullStore and, their
// low nibbles bit-sliced into planes, in a chunked arena (see sigArena),
// both addressed by a shard-local record index, so exact scans are
// cache-linear sweeps over a few buffers instead of a pointer chase per
// record. Each shard has its own lock, so concurrent adds on different
// stripes never contend, and a search holds one stripe's read lock at a
// time as it walks them in turn. The rows' LSH postings live in the
// index-wide postingTable, filed under this stripe's id.
type shard struct {
	mu       sync.RWMutex
	names    nameTable // arena row index <-> record name
	shingles []int32   // arena row index -> shingle count
	arena    *sigArena
	id       int32         // this stripe's number in the index and the posting table
	posts    *postingTable // shared by every stripe of the index
	full     *fullStore    // the full-width rows the arena prefilters

	// Deletes are tombstones: the row stays in the arena (and segments)
	// but its dead bit is set and every scan skips it, until a
	// compaction rewrites the stripe without it.
	dead     []uint64 // bitset over arena rows; 1 = tombstoned
	deadRows int
}

// newShards returns n empty stripes filing their postings in posts and
// their full-width rows in stores on tier.
func newShards(n int, posts *postingTable, slots int, tier *tierState) []*shard {
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = &shard{
			arena: newSigArena(slots),
			id:    int32(i),
			posts: posts,
			full:  newFullStore(slots, i, tier),
		}
	}
	return shards
}

// add packs s's signature onto the arena unless a record with the same
// name is already present; it reports whether the insert happened. An
// add the posting table has no room for fails with ErrIndexFull before
// anything is written. The full-width signature is appended to the full
// store first — a seal failure there rolls back cleanly and fails the
// add before anything is registered, so the two never disagree.
func (sh *shard) add(s *Sketch) (bool, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.names.lookup(s.Name, sh.dead) >= 0 {
		return false, nil
	}
	if sh.posts.full() || !sh.names.fits(s.Name) {
		return false, ErrIndexFull
	}
	if err := sh.full.append(s.Signature); err != nil {
		return false, err
	}
	idx := int32(sh.arena.appendSig(s.Signature))
	sh.names.add(s.Name, sh.dead)
	sh.shingles = append(sh.shingles, int32(s.Shingles))
	sh.posts.add(sh.id, idx, s.Signature)
	if w := sh.full.tier.wal.Load(); w != nil {
		w.appendAdd(sh.full.tier.walSeq.Add(1), s.Name, int32(s.Shingles), s.Signature)
	}
	return true, nil
}

// delete tombstones the record named name: the row's dead bit is set, so
// name lookups pass over it (and a later add may reuse the name) and
// every scan path skips it from now on. The arena row itself is
// reclaimed by the next compaction. It reports whether a record was
// deleted.
func (sh *shard) delete(name string) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx := sh.names.lookup(name, sh.dead)
	if idx < 0 {
		return false
	}
	w := int(idx) >> 6
	for len(sh.dead) <= w {
		sh.dead = append(sh.dead, 0)
	}
	sh.dead[w] |= 1 << uint(idx&63)
	sh.deadRows++
	if wl := sh.full.tier.wal.Load(); wl != nil {
		wl.appendDelete(sh.full.tier.walSeq.Add(1), name)
	}
	return true
}

// rowDead reports whether arena row idx is tombstoned. Callers hold the
// shard lock (either mode).
func (sh *shard) rowDead(idx int32) bool { return bitSet(sh.dead, idx) }

// bitSet reports whether bit idx is set in a row bitset; rows past the
// end of the set (appended after it was sized) read as unset.
func bitSet(set []uint64, idx int32) bool {
	w := int(idx) >> 6
	return w < len(set) && set[w]&(1<<uint(idx&63)) != 0
}

// deadCount returns (tombstoned rows, total arena rows).
func (sh *shard) deadCount() (dead, rows int) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.deadRows, sh.names.len()
}

// size returns the number of live records in this stripe (tombstoned
// rows are excluded).
func (sh *shard) size() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.names.len() - sh.deadRows
}

// has reports whether a record named name is present, without
// reconstructing its sketch.
func (sh *shard) has(name string) bool {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.names.lookup(name, sh.dead) >= 0
}

// getSketch reconstructs the sketch named name from the full store, or
// returns nil. k comes from the index metadata.
func (sh *shard) getSketch(name string, k int) *Sketch {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	idx := sh.names.lookup(name, sh.dead)
	if idx < 0 {
		return nil
	}
	var sc rowScratch
	return sh.sketchLocked(idx, k, &sc)
}

// appendPage appends to dst the sketches of the stripe's live rows in
// row order, starting after the live row named after ("" starts at row
// 0), until dst holds limit. more reports that a live row follows the
// page in this stripe; found is false when after names no live row here.
// A row the tier fails to read is counted and skipped.
func (sh *shard) appendPage(dst []*Sketch, after string, limit, k int) (out []*Sketch, more, found bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	from := 0
	if after != "" {
		idx := sh.names.lookup(after, sh.dead)
		if idx < 0 {
			return dst, false, false
		}
		from = int(idx) + 1
	}
	var sc rowScratch
	for i := int32(from); int(i) < sh.names.len(); i++ {
		if sh.rowDead(i) {
			continue
		}
		if len(dst) == limit {
			return dst, true, true
		}
		if s := sh.sketchLocked(i, k, &sc); s != nil {
			dst = append(dst, s)
		}
	}
	return dst, false, true
}

// sketchLocked reconstructs row idx's sketch, or returns nil if the full
// store fails to read it. Callers hold sh.mu (either mode).
func (sh *shard) sketchLocked(idx int32, k int, sc *rowScratch) *Sketch {
	row, err := sh.full.row(int(idx), sc)
	if err != nil {
		sh.full.tier.readErrors.Add(1)
		return nil
	}
	return &Sketch{
		Name:      sh.names.name(idx),
		K:         k,
		Shingles:  int(sh.shingles[idx]),
		Signature: slices.Clone(row),
	}
}

// tierBytes returns this stripe's tier footprint: sealed segment count,
// mmap'd payload bytes, unsealed head bytes, and the packed prefilter's
// live bytes.
func (sh *shard) tierBytes() (segs int, mapped, head, arenaUsed int64) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.full.segs), sh.full.mappedBytes(), sh.full.headBytes(), sh.arena.usedBytes()
}

// arenaBytes returns this stripe's (used, capacity) signature bytes.
func (sh *shard) arenaBytes() (used, capacity int64) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.arena.usedBytes(), sh.arena.capBytes()
}

// sweepBlock is how many rows an arena chunk holds, which one
// matchSurvivors call covers: 2 KB of survivors on the sweep's stack, and
// the stride at which a sweep polls for cancellation.
const sweepBlock = 256

// beginProbe snapshots the stripe for a search: sc's candidate bitset
// is sized and cleared for the rows the stripe holds now. The bitset is
// retained after the probe so a later sweep can score exactly the
// complement; the search holds Index.writeMu shared throughout, so no
// compaction renumbers the rows it marks in between.
func (sh *shard) beginProbe(sc *shardScratch) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sc.resetFor(sh.names.len())
}

// scoreCandidates scores the rows the probe routed to this stripe, one
// scattered row at a time, through the same prefilter→rescore pipeline
// as a sweep.
func (sh *shard) scoreCandidates(heap []Result, q *packedQuery, topK int, sc *shardScratch) []Result {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sc.scored = sc.scored[:0]
	for i, idx := range sc.cands {
		if i%cancelCheckEvery == 0 && q.cancel.canceled() {
			return heap
		}
		sh.prefilter(q, sc, idx, sh.arena.rowMatches(int(idx), q.packed))
	}
	return sh.rescore(heap, q, topK, sc, len(sc.cands))
}

// sweep is the one full-stripe scan loop, a search's complement pass:
// it scores every row NOT marked in sc's candidate bitset, so no record
// is scored twice and the merged set matches an exact scan; with no
// candidates (a probe that found nothing here) that is every row.
// Records added after the probe (concurrent ingest) sit past the bitset
// and count as unprobed.
//
// It walks the packed arena a chunk of sweepBlock rows at a time, and the
// scan kernel (matchSurvivors) hands back only the rows whose nibble
// count reaches the query's floor plus its padding bits, each with that
// count; in ModeExact the floor is seeded from the candidates (see
// Index.Search), so most rows fall short on their first plane. The
// unprobed ones among the survivors go through prefilter into sc.scored,
// and the full-width rescore offers them to the search's top-K heap.
func (sh *shard) sweep(heap []Result, q *packedQuery, topK int, sc *shardScratch) []Result {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	n := sh.names.len()
	sc.scored = sc.scored[:0]

	var surv [sweepBlock]survivor
	for c, chunk := range sh.arena.chunks {
		if q.cancel.canceled() {
			return heap
		}
		base := c * sweepBlock
		k := matchSurvivors(surv[:min(sweepBlock, n-base)], chunk, q.packed, q.minMatched+q.pad)
		for _, s := range surv[:k] {
			if idx := int32(base) + int32(s.off); !bitSet(sc.candSet, idx) {
				sh.prefilter(q, sc, idx, int(s.count))
			}
		}
	}
	return sh.rescore(heap, q, topK, sc, n-len(sc.cands))
}

// prefilter is the one cut both passes make: it files arena row idx,
// whose count of nibbles equal to the query's is count (padding bits
// included), in sc.scored unless the row is dead or its matched count
// falls below q.minMatched. A zero-shingle row or query matches nothing,
// so it survives only a floor of 0. The nibble count upper-bounds the
// full-width count (a truncated slot matches whenever the full slot
// does), so the cut never drops a row the full scan would have kept, and
// the count goes on as the rescore's bound. Callers hold the shard lock.
func (sh *shard) prefilter(q *packedQuery, sc *shardScratch, idx int32, count int) {
	if sh.rowDead(idx) {
		return
	}
	m := 0
	if q.shingles != 0 && sh.shingles[idx] != 0 {
		m = count - q.pad
	}
	if m < q.minMatched {
		return
	}
	sc.scored = append(sc.scored, scoredCand{idx: idx, matched: int32(m)})
}

// rescore reads the prefilter survivors in sc.scored full-width from
// the shard's full store, highest packed count first, and offers each to
// heap, the search's bounded top-K, which it returns: it holds at most
// topK results and, once full, is a min-heap whose root heap[0] is the
// K-th best so far, across every stripe and both passes. A row named
// like the query with the query's full-width signature is a self-hit and
// skipped. Because the packed count upper-bounds the full-width count,
// the walk stops as soon as the next candidate's bound falls below the
// root — on selective queries only a handful of rows are ever read from
// disk — and a row that cannot beat the root is skipped before its name
// is copied. Every reported score is computed from the full-width rows,
// so answers are exact. A positive tier budget additionally caps the
// full-width reads, counted in sc across both passes of a query; rows
// that fail to read are counted and skipped rather than failing the
// query. scanned is the row count the prefilter phase covered, for the
// survival-rate counters. Callers hold the shard lock.
func (sh *shard) rescore(heap []Result, q *packedQuery, topK int, sc *shardScratch, scanned int) []Result {
	t := sh.full.tier
	t.scanned.Add(uint64(scanned))
	t.survived.Add(uint64(len(sc.scored)))
	if len(sc.scored) == 0 {
		return heap
	}
	slices.SortFunc(sc.scored, func(a, b scoredCand) int {
		if a.matched != b.matched {
			return int(b.matched - a.matched)
		}
		return int(a.idx - b.idx)
	})
	budget := int(t.budget.Load())
	rescored := sc.rescored
	slotsF := float64(q.slots)
	for ci, c := range sc.scored {
		if budget > 0 && rescored >= budget {
			break
		}
		// Rescore rows are disk reads, so poll cancellation on a much
		// shorter stride than the in-memory scans.
		if ci&63 == 0 && q.cancel.canceled() {
			break
		}
		full := len(heap) == topK
		if full && float64(c.matched)/slotsF < heap[0].Similarity {
			break // no remaining candidate's upper bound reaches the root
		}
		row, err := sh.full.row(int(c.idx), &sc.rsc)
		if err != nil {
			t.readErrors.Add(1)
			continue
		}
		rescored++
		if sh.names.is(c.idx, q.name) && slices.Equal(q.full, row) {
			continue
		}
		m := 0
		if q.shingles != 0 && sh.shingles[c.idx] != 0 {
			m = matchingSlots(q.full, row)
		}
		sim := float64(m) / slotsF
		if m < q.minMatched || full && !sh.ranksBefore(c.idx, sim, heap[0]) {
			continue // below the floor, or ranked below the K-th best already held
		}
		r := Result{Query: q.name, Ref: sh.names.name(c.idx), Similarity: sim, Distance: 1 - sim}
		if full {
			heap[0] = r
			siftWorstDown(heap, 0)
			continue
		}
		heap = append(heap, r)
		if len(heap) == topK {
			for i := topK/2 - 1; i >= 0; i-- {
				siftWorstDown(heap, i)
			}
		}
	}
	t.rescored.Add(uint64(rescored - sc.rescored))
	sc.rescored = rescored
	return heap
}

// ranksBefore reports whether row idx, scored sim against the query,
// ranks before r, a result of the same search: every result of one
// search carries the query's name, so resultBetter's tie falls to the
// ref names, which this compares in place.
func (sh *shard) ranksBefore(idx int32, sim float64, r Result) bool {
	if sim != r.Similarity {
		return sim > r.Similarity
	}
	return sh.names.less(idx, r.Ref)
}

// compactLocked rewrites a directory index's stripe without its
// tombstoned rows: fresh name table, shingles and packed arena, and a
// fresh full-width store whose segments are written under new file
// names (the committed manifest still references the old ones; they are
// swept after the next manifest commit). Row indexes are reassigned, in
// order; no search is in flight to see it, because SaveDir holds
// Index.writeMu exclusively and every search holds it shared. On any
// error the shard is left untouched. It returns the number of rows dropped. The stripe's
// postings still name the old rows: callers hold sh.mu exclusively and
// rebuild the posting table before releasing it.
func (sh *shard) compactLocked(slots int) (int, error) {
	live, liveBytes := sh.names.len()-sh.deadRows, 0
	for i := range int32(sh.names.len()) {
		if !sh.rowDead(i) {
			s, e := sh.names.span(i)
			liveBytes += int(e - s)
		}
	}
	names := newNameTable(live, live, liveBytes)
	shingles := make([]int32, 0, live)
	arena := newSigArena(slots)
	full := newFullStore(slots, int(sh.id), sh.full.tier)
	var rsc rowScratch
	sig := make([]uint64, 0, slots)
	for i := range sh.names.len() {
		if sh.rowDead(int32(i)) {
			continue
		}
		row, err := sh.full.row(i, &rsc)
		if err == nil {
			sig = append(sig[:0], row...)
			err = full.append(sig)
		}
		if err != nil {
			full.close()
			return 0, err
		}
		arena.appendSig(sig)
		names.add(sh.names.name(int32(i)), nil)
		shingles = append(shingles, sh.shingles[i])
	}
	dropped := sh.deadRows
	sh.full.close()
	sh.full = full
	sh.names, sh.shingles, sh.arena = names, shingles, arena
	sh.dead, sh.deadRows = nil, 0
	return dropped, nil
}

// shardFor maps a record name onto one of n stripes with FNV-1a.
func shardFor(name string, n int) int {
	return int(fnv1a(name) % uint64(n))
}
