package core

import "fmt"

// The signature arena is every index's resident prefilter. Full-width
// signatures live in the shard's fullStore — on-disk segments for a
// directory index, a heap head for an in-memory one — and the arena keeps
// only the low byte of every slot (b-bit minwise hashing), split into two
// nibble planes of 16 slots a word (see planes): an 8x smaller working
// set, a word-parallel comparator, and a sweep that reads only the low
// plane of most rows, because slots with equal bytes have equal low
// nibbles. The cost is extra candidates (two different slots agree on
// their low byte with probability 2^-8) that the full-width rescore drops.
const (
	prefilterBits = 8
	// laneMask keeps the part of a slot value the prefilter holds.
	laneMask = 1<<prefilterBits - 1
	// lanesPerWord is how many slots one word of a plane holds: one
	// nibble each.
	lanesPerWord = 16
)

// validBits checks a caller's packing width: 0 (the default) or 8, the
// one width an index packs at.
func validBits(bits int) error {
	if bits != 0 && bits != prefilterBits {
		return fmt.Errorf("bits: unsupported packing width %d (want %d)", bits, prefilterBits)
	}
	return nil
}

// sigWords returns how many uint64 words one packed signature of
// `slots` lanes occupies in each plane. The last word may be partially
// used; its padding nibbles are always zero on every row, so they cancel
// in comparisons (see packedMatchingSlots).
func sigWords(slots int) int {
	if slots <= 0 {
		return 0
	}
	return (slots + lanesPerWord - 1) / lanesPerWord
}

// planes is one packed row, or a block of consecutive rows: slot j's low
// nibble is nibble j%16 of lo word j/16 and its high nibble the same
// nibble of hi word j/16 (the two-slice case of a bit-sliced index); a
// block holds its rows' lo words back to back, and their hi words.
type planes struct{ lo, hi []uint64 }

// sigArena is a contiguous packed signature store: every record's
// signature occupies the same number of words in each plane, back to
// back, addressed by record index. Exact scans walk the low plane
// cache-linearly instead of pointer-chasing per-record slices. Both
// planes share one allocation, the low plane from word 0 and the high
// plane from the buffer's midpoint, so the arena grows — and costs the
// heap — exactly as one row-major buffer of the same bytes would. The
// arena is not internally locked; the owning shard serializes access.
type sigArena struct {
	slots int
	words int // words per signature in each plane
	rows  int
	buf   []uint64
}

func newSigArena(slots int) *sigArena {
	return &sigArena{slots: slots, words: sigWords(slots)}
}

// appendSig packs the full-width slot values of sig onto the end of the
// arena, truncating each slot to its low byte, and returns the new
// record's index.
func (a *sigArena) appendSig(sig []uint64) int {
	idx, w := a.rows, a.words
	a.rows++
	half := len(a.buf) / 2
	if (idx+1)*w > half {
		// Grow as one buffer of both planes grows under append, to an even
		// length, then move the high plane up to the new midpoint.
		grown := append(a.buf, make([]uint64, 2*w)...)
		grown = grown[:cap(grown)&^1]
		copy(grown[len(grown)/2:], a.buf[half:half+idx*w])
		a.buf, half = grown, len(grown)/2
	}
	lo, hi := idx*w, half+idx*w
	packAppend(planes{a.buf[lo : lo : lo+w], a.buf[hi : hi : hi+w]}, sig) // in place: each plane has room for exactly w words
	return idx
}

// block returns rows [i, i+n) of both planes, aliasing the arena. It is
// only valid until the next appendSig (growth may reallocate); callers
// hold the shard lock across use.
func (a *sigArena) block(i, n int) planes {
	from, to, half := i*a.words, (i+n)*a.words, len(a.buf)/2
	return planes{lo: a.buf[from:to:to], hi: a.buf[half+from : half+to : half+to]}
}

// row returns signature i's packed words (see block).
func (a *sigArena) row(i int) planes { return a.block(i, 1) }

// appendLanes appends signature i's slot values, as the arena holds
// them — their low bytes — to dst: all that a band key reads.
func (a *sigArena) appendLanes(dst []uint64, i int) []uint64 {
	row := a.row(i)
	for j := 0; j < a.slots; j++ {
		s := uint(j % 16 * 4)
		dst = append(dst, row.lo[j/16]>>s&0xf|row.hi[j/16]>>s&0xf<<4)
	}
	return dst
}

// usedBytes returns the bytes holding live signatures; capBytes the
// bytes allocated (append growth keeps headroom).
func (a *sigArena) usedBytes() int64 { return int64(a.rows*a.words) * 16 }
func (a *sigArena) capBytes() int64  { return int64(cap(a.buf)) * 8 }

// packAppend appends sig to p with slot j's low byte split into nibble
// j%16 of word j/16 of each plane, the padding nibbles of a final
// partial word zero.
func packAppend(p planes, sig []uint64) planes {
	for j, v := range sig {
		if j%16 == 0 {
			p.lo, p.hi = append(p.lo, 0), append(p.hi, 0)
		}
		s := uint(j % 16 * 4)
		p.lo[len(p.lo)-1] |= v & 0xf << s
		p.hi[len(p.hi)-1] |= v >> 4 & 0xf << s
	}
	return p
}
