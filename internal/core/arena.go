package core

import (
	"errors"
	"fmt"
)

// Packing widths for the signature arena. Full-width signatures always
// exist: an in-memory index keeps them in its arena at 64 bits. A tiered
// index keeps them in its on-disk segments, and its arena is a RAM
// prefilter at 64 or 8 bits. At 8 bits only the low byte of every slot
// is kept (b-bit minwise hashing), so 8 slots pack into each uint64
// word: an 8x smaller working set and a word-parallel comparator, at
// the cost of extra candidates (two different slots agree on their low
// byte with probability 2^-8) that the full-width rescore drops.
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

// sigWords returns how many uint64 words one packed signature of
// `slots` b-bit lanes occupies. The last word may be partially used;
// its padding lanes are always zero on every row, so they cancel in
// comparisons (see packedMatchingSlots).
func sigWords(slots, bits int) int {
	if slots <= 0 {
		return 0
	}
	return (slots*bits + 63) / 64
}

// sigArena is a contiguous packed signature store: every record's
// signature occupies the same number of words, back to back in one
// []uint64 buffer, addressed by record index. Exact scans walk the
// buffer cache-linearly instead of pointer-chasing per-record slices.
// The arena is not internally locked; the owning shard serializes
// access.
type sigArena struct {
	bits  int
	slots int
	words int // words per signature
	buf   []uint64
}

func newSigArena(slots, bits int) *sigArena {
	return &sigArena{bits: bits, slots: slots, words: sigWords(slots, bits)}
}

// appendSig packs the full-width slot values of sig onto the end of the
// arena, truncating each slot to the arena's packing width, and returns
// the new record's index.
func (a *sigArena) appendSig(sig []uint64) int {
	idx := a.len()
	a.buf = packSignatureAppend(a.buf, sig, a.bits)
	return idx
}

// len returns the number of signatures stored.
func (a *sigArena) len() int {
	if a.words == 0 {
		return 0
	}
	return len(a.buf) / a.words
}

// row returns the packed words of signature i, aliasing the arena
// buffer. The slice is only valid until the next appendSig (growth may
// reallocate); callers hold the shard lock across use.
func (a *sigArena) row(i int) []uint64 {
	off := i * a.words
	return a.buf[off : off+a.words : off+a.words]
}

// appendLanes appends signature i's slot values to dst: the originals
// at 64 bits, their low bytes in an 8-bit prefilter — all that a band
// key masked to the arena's width reads.
func (a *sigArena) appendLanes(dst []uint64, i int) []uint64 {
	row := a.row(i)
	if a.bits == 64 {
		return append(dst, row...)
	}
	for j := 0; j < a.slots; j++ {
		dst = append(dst, row[j/8]>>(j%8*8)&0xff)
	}
	return dst
}

// usedBytes returns the bytes holding live signatures; capBytes the
// bytes allocated (append growth keeps headroom).
func (a *sigArena) usedBytes() int64 { return int64(len(a.buf)) * 8 }
func (a *sigArena) capBytes() int64  { return int64(cap(a.buf)) * 8 }

// packSignatureAppend appends sig to dst packed at `bits` bits a slot:
// as is at 64; at 8, the low byte of slot j goes to byte j%8 of word j/8
// (little-endian), and the padding lanes of a final partial word are
// zero.
func packSignatureAppend(dst []uint64, sig []uint64, bits int) []uint64 {
	if bits == 64 {
		return append(dst, sig...)
	}
	for j, v := range sig {
		if j%8 == 0 {
			dst = append(dst, 0)
		}
		dst[len(dst)-1] |= (v & 0xff) << (j % 8 * 8)
	}
	return dst
}
