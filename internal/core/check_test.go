package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// checkInvariants holds what an index derives from its full-width rows
// to those rows and to each other, and returns the first disagreement:
// arena rows are their full rows' low nibbles, the posting table is well
// formed (checkLevels) and files every live row (checkFiled), the name
// tables file theirs (checkNames), and the counts agree. It takes
// writeMu exclusively, so whenever it runs the index is quiescent.
func (ix *Index) checkInvariants() error {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	rows, records := make([]int, len(ix.shards)), 0
	var sc rowScratch
	for si, sh := range ix.shards {
		n, dead := sh.names.len(), 0
		if full := sh.full.headBase + sh.full.headRows(); sh.arena.rows != n || len(sh.shingles) != n || full != n {
			return fmt.Errorf("stripe %d: %d names, %d arena rows, %d shingle counts and %d full rows", si, n, sh.arena.rows, len(sh.shingles), full)
		}
		for w, x := range sh.dead {
			if dead += bits.OnesCount64(x); x != 0 && w*64+63-bits.LeadingZeros64(x) >= n {
				return fmt.Errorf("stripe %d: a dead bit past its %d rows", si, n)
			}
		}
		if rows[si], records = n, records+n-dead; dead != sh.deadRows {
			return fmt.Errorf("stripe %d: %d dead bits, deadRows %d", si, dead, sh.deadRows)
		}
		q := make([]uint64, prefilterBits*sh.arena.words)
		for i := range n {
			full, err := sh.full.row(i, &sc)
			if err != nil {
				return fmt.Errorf("stripe %d row %d: %w", si, i, err)
			}
			if packPlanes(q, 1, full); sh.arena.rowMatches(i, q) != 64*sh.arena.words {
				return fmt.Errorf("stripe %d row %d: the arena row is not its full row's low nibbles", si, i)
			}
		}
		if err := checkNames(&sh.names, sh.dead); err != nil {
			return fmt.Errorf("stripe %d: %w", si, err)
		}
	}
	if records != ix.meta.RecordCount { // meta's writers all hold writeMu
		return fmt.Errorf("%d live rows, RecordCount %d", records, ix.meta.RecordCount)
	}
	sealed, delta, err := ix.posts.checkLevels(rows)
	if err != nil {
		return err
	}
	return ix.checkFiled(sealed, delta)
}

// checkLevels checks the two levels over stripes of rows[si] rows: the
// sealed words in (fingerprint, shard, row) order, the directory
// monotone and covering them, every delta chain reached once from the
// slot its key finds, the bucket and posting counts (lsh_delta_postings
// among them), and no posting past its stripe. It returns, by shard<<32 |
// row, the fingerprints a row is sealed under and its delta keys.
func (t *postingTable) checkLevels(rows []int) (sealed map[uint64][]uint32, delta map[uint64][]uint64, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sealed, delta = map[uint64][]uint32{}, map[uint64][]uint64{}
	if len(t.dir) != 1<<t.dirBits+1 || t.dirBits < minDirBits || t.dir[0] != 0 || int(t.dir[len(t.dir)-1]) != len(t.packed) {
		return nil, nil, fmt.Errorf("sealed: %d offsets for %d directory bits, from %d to %d over %d words", len(t.dir), t.dirBits, t.dir[0], t.dir[len(t.dir)-1], len(t.packed))
	}
	postMask, rowMask := uint32(1)<<t.dirBits-1, uint32(1)<<t.rowBits-1
	last, buckets, words := uint64(0), 0, 0
	for c := range len(t.dir) - 1 {
		for i := t.dir[c]; i < t.dir[c+1]; i++ {
			fp := uint32(c)<<(32-t.dirBits) | t.packed[i]>>t.dirBits
			ent, shard, row := uint64(fp)<<32|uint64(t.packed[i]&postMask), int(t.packed[i]&postMask>>t.rowBits), t.packed[i]&rowMask
			if i > 0 && ent < last || shard >= len(rows) || int(row) >= rows[shard] {
				return nil, nil, fmt.Errorf("sealed: word %d (%x) is past its stripe or sorts before the one ahead of it (%x)", i, ent, last)
			}
			if i == 0 || fp != uint32(last>>32) {
				buckets++
			}
			id := uint64(shard)<<32 | uint64(row)
			last, sealed[id], words = ent, append(sealed[id], fp), words+1
		}
	}
	if n := len(t.slots); words != len(t.packed) || buckets != t.sealedUsed || n < minPostSlots || n&(n-1) != 0 || 4*t.used > 3*n {
		return nil, nil, fmt.Errorf("%d sealed words in %d buckets, sealedUsed %d: the directory runs backwards or miscounts; %d delta buckets in %d slots",
			words, buckets, t.sealedUsed, t.used, n)
	}
	used, reached := 0, 0
	for i, s := range t.slots {
		if s.head == 0 {
			continue
		}
		if used++; t.find(s.key) != uint64(i) {
			return nil, nil, fmt.Errorf("delta: key %x sits in slot %d, where a lookup does not find it", s.key, i)
		}
		p, tail := s.head, int32(0)
		for ; p != 0; tail, p = p, t.posts[p].next {
			if reached++; p < 0 || int(p) >= len(t.posts) || reached >= len(t.posts) {
				return nil, nil, fmt.Errorf("delta: key %x's chain runs to posting %d of %d", s.key, p, len(t.posts))
			}
			e := t.posts[p]
			if e.shard < 0 || int(e.shard) >= len(rows) || e.row < 0 || int(e.row) >= rows[e.shard] {
				return nil, nil, fmt.Errorf("delta: key %x files %+v, past its stripe", s.key, e)
			}
			id := uint64(e.shard)<<32 | uint64(e.row)
			delta[id] = append(delta[id], s.key)
		}
		if tail != s.tail {
			return nil, nil, fmt.Errorf("delta: key %x's chain ends at %d, its tail is %d", s.key, tail, s.tail)
		}
	}
	if used != t.used || reached != len(t.posts)-1 {
		return nil, nil, fmt.Errorf("delta: %d buckets holding %d postings, counted %d and %d", used, reached, t.used, len(t.posts)-1)
	}
	return sealed, delta, nil
}

// sealWatch keeps, per index, the seal count and each stripe's arena and
// dead rows its last check saw. A row dead then, in a stripe whose arena
// no compaction has replaced, was dead at every seal since: none keeps it.
var sealWatch sync.Map // *Index -> *watched

type watched struct {
	seals  uint64
	arenas []*sigArena
	dead   [][]uint64
}

// checkFiled holds the filings to the rows: a live row is filed under
// each band key hashed from its full row exactly once, all in one level
// — the delta by whole key, the sealed level by fingerprint. A dead row
// is filed so or not at all, and never sealed if it was dead before the
// seal (see sealWatch). Callers hold writeMu exclusively.
func (ix *Index) checkFiled(sealed map[uint64][]uint32, delta map[uint64][]uint64) error {
	p, now := ix.posts.params, &watched{seals: ix.posts.seals}
	prev, _ := sealWatch.Load(ix)
	var sc rowScratch
	for si, sh := range ix.shards {
		now.arenas, now.dead = append(now.arenas, sh.arena), append(now.dead, slices.Clone(sh.dead))
		for i := range int32(sh.names.len()) {
			id := uint64(si)<<32 | uint64(i)
			fs, ks := sealed[id], delta[id]
			if fs == nil && ks == nil && sh.rowDead(i) {
				continue
			}
			sig, _ := sh.full.row(int(i), &sc)
			keys, fps := make([]uint64, p.Bands), make([]uint32, p.Bands)
			for b := range keys {
				keys[b] = p.bandKey(b, sig)
				fps[b] = uint32(keys[b] >> 32)
			}
			slices.Sort(keys)
			slices.Sort(ks)
			slices.Sort(fps)
			slices.Sort(fs)
			if !(ks == nil && slices.Equal(fs, fps) || fs == nil && slices.Equal(ks, keys)) {
				return fmt.Errorf("stripe %d row %d (%q, dead %v): filed under fingerprints %x sealed and keys %x in the delta, want its band keys %x in one level",
					si, i, sh.names.name(i), sh.rowDead(i), fs, ks, keys)
			}
			if w, ok := prev.(*watched); ok && fs != nil && w.seals != now.seals && w.arenas[si] == sh.arena && bitSet(w.dead[si], i) {
				return fmt.Errorf("stripe %d row %d (%q): dead before seal %d and still sealed", si, i, sh.names.name(i), now.seals)
			}
		}
	}
	sealWatch.Store(ix, now)
	return nil
}

// checkNames holds a stripe's name table to its rows and dead set: ends
// rise to the end of buf, the index is a power of two at most 3/4 full
// whose count is right, each live row is filed once and looks up to
// itself, and no name looks up to a dead row.
func checkNames(t *nameTable, dead []uint64) error {
	end, n := uint32(0), len(t.slots)
	for r, e := range t.ends {
		if end = max(end, e); e < end {
			return fmt.Errorf("name table: row %d ends at %d, before %d", r, e, end)
		}
	}
	seen := make([]int, t.len()+1) // seen[0] counts the empty slots, seen[r+1] row r's
	for _, s := range t.slots {
		if int(s) > t.len() {
			return fmt.Errorf("name table: a slot names row %d of %d", s-1, t.len())
		}
		seen[s]++
	}
	if int(end) != len(t.buf) || n != 0 && (n < 8 || n&(n-1) != 0 || 64-t.shift != uint(bits.Len(uint(n-1)))) || 4*t.filed > 3*n || n-seen[0] != t.filed {
		return fmt.Errorf("name table: names end at %d of %d bytes; %d slots, %d filed (counted %d), shift %d", end, len(t.buf), n, n-seen[0], t.filed, t.shift)
	}
	for r := range int32(t.len()) {
		got := t.lookup(t.name(r), dead)
		if !bitSet(dead, r) && (seen[r+1] != 1 || got != r) || seen[r+1] > 1 || got >= 0 && bitSet(dead, got) {
			return fmt.Errorf("name table: row %d (%q, dead %v) filed %d times, looks up to %d", r, t.name(r), bitSet(dead, r), seen[r+1], got)
		}
	}
	return nil
}
