package core

import (
	"errors"
	"fmt"
	"slices"
)

// Packing widths for the signature arena. Full-width signatures always
// exist: an in-memory index keeps them in its arena at 64 bits. A tiered
// index keeps them in its on-disk segments, and its arena is a RAM
// prefilter at 64 or 8 bits. At 8 bits only the low byte of every slot
// is kept (b-bit minwise hashing), split into two nibble planes of 16
// slots a word (see planes): an 8x smaller working set, a word-parallel
// comparator, and a sweep that reads only the low plane of most rows,
// because slots with equal bytes have equal low nibbles. The cost is
// extra candidates (two different slots agree on their low byte with
// probability 2^-8) that the full-width rescore drops.
const (
	// DefaultBits keeps full-width slots; the default.
	DefaultBits = 64
)

// validBits normalizes and validates a packing width: 0 means
// DefaultBits; otherwise it must be 64, or 8 on a tiered index.
func validBits(bits int, tiered bool) (int, error) {
	switch bits {
	case 0:
		return DefaultBits, nil
	case 64:
		return bits, nil
	case 8:
		if !tiered {
			return 0, errors.New("bits: Options.Bits 8 requires Options.Tiered (an in-memory index keeps full-width 64-bit slots)")
		}
		return bits, nil
	default:
		return 0, fmt.Errorf("bits: unsupported packing width %d (want 64, or 8 on a tiered index)", bits)
	}
}

// laneMask returns the per-slot value mask for a packing width: the low
// `bits` bits, or all ones at full width.
func laneMask(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bits) - 1
}

// lanesPerWord is how many lanes one word of a plane holds: one
// full-width slot, or 16 nibbles.
func lanesPerWord(bits int) int {
	if bits == 8 {
		return 16
	}
	return 1
}

// sigWords returns how many uint64 words one packed signature of
// `slots` lanes occupies in each plane. The last word may be partially
// used; its padding nibbles are always zero on every row, so they cancel
// in comparisons (see packedMatchingSlots).
func sigWords(slots, bits int) int {
	if slots <= 0 {
		return 0
	}
	return (slots + lanesPerWord(bits) - 1) / lanesPerWord(bits)
}

// planes is one packed row, or a block of consecutive rows. At 64 bits
// lo holds the full-width slots and hi is empty. At 8 bits slot j's low
// nibble is nibble j%16 of lo word j/16 and its high nibble the same
// nibble of hi word j/16 (the two-slice case of a bit-sliced index); a
// block holds its rows' lo words back to back, and their hi words.
type planes struct{ lo, hi []uint64 }

func (p planes) equal(o planes) bool { return slices.Equal(p.lo, o.lo) && slices.Equal(p.hi, o.hi) }

// sigArena is a contiguous packed signature store: every record's
// signature occupies the same number of words in each plane, back to
// back, addressed by record index. Exact scans walk the low plane
// cache-linearly instead of pointer-chasing per-record slices. At 8 bits
// both planes share one allocation, the low plane from word 0 and the
// high plane from the buffer's midpoint, so the arena grows — and costs
// the heap — exactly as one row-major buffer of the same bytes would.
// The arena is not internally locked; the owning shard serializes
// access.
type sigArena struct {
	bits  int
	slots int
	words int // words per signature in each plane
	rows  int
	buf   []uint64
}

func newSigArena(slots, bits int) *sigArena {
	return &sigArena{bits: bits, slots: slots, words: sigWords(slots, bits)}
}

// appendSig packs the full-width slot values of sig onto the end of the
// arena, truncating each slot to the arena's packing width, and returns
// the new record's index.
func (a *sigArena) appendSig(sig []uint64) int {
	idx, w := a.rows, a.words
	a.rows++
	if a.bits == 64 {
		a.buf = append(a.buf, sig...)
		return idx
	}
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
	packAppend(planes{a.buf[lo : lo : lo+w], a.buf[hi : hi : hi+w]}, sig, a.bits) // in place: each plane has room for exactly w words
	return idx
}

// len returns the number of signatures stored.
func (a *sigArena) len() int { return a.rows }

// block returns rows [i, i+n) of both planes, aliasing the arena. It is
// only valid until the next appendSig (growth may reallocate); callers
// hold the shard lock across use.
func (a *sigArena) block(i, n int) planes {
	from, to := i*a.words, (i+n)*a.words
	b := planes{lo: a.buf[from:to:to]}
	if half := len(a.buf) / 2; a.bits == 8 {
		b.hi = a.buf[half+from : half+to : half+to]
	}
	return b
}

// row returns signature i's packed words (see block).
func (a *sigArena) row(i int) planes { return a.block(i, 1) }

// appendLanes appends signature i's slot values to dst: the originals
// at 64 bits, their low bytes in an 8-bit prefilter — all that a band
// key masked to the arena's width reads.
func (a *sigArena) appendLanes(dst []uint64, i int) []uint64 {
	row := a.row(i)
	if a.bits == 64 {
		return append(dst, row.lo...)
	}
	for j := 0; j < a.slots; j++ {
		s := uint(j % 16 * 4)
		dst = append(dst, row.lo[j/16]>>s&0xf|row.hi[j/16]>>s&0xf<<4)
	}
	return dst
}

// usedBytes returns the bytes holding live signatures; capBytes the
// bytes allocated (append growth keeps headroom).
func (a *sigArena) usedBytes() int64 {
	if a.bits == 8 {
		return int64(a.rows*a.words) * 16
	}
	return int64(a.rows*a.words) * 8
}
func (a *sigArena) capBytes() int64 { return int64(cap(a.buf)) * 8 }

// packAppend appends sig to p packed at `bits` bits a slot: as is to lo
// at 64; at 8, slot j's low byte split into nibble j%16 of word j/16 of
// each plane, the padding nibbles of a final partial word zero.
func packAppend(p planes, sig []uint64, bits int) planes {
	if bits == 64 {
		p.lo = append(p.lo, sig...)
		return p
	}
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
