package core

import "fmt"

// The signature arena is every index's resident prefilter. Full-width
// signatures live in the shard's fullStore — on-disk segments for a
// directory index, a heap head for an in-memory one — and the arena keeps
// only the low nibble of every slot (b-bit minwise hashing), 16 slots a
// word: a 16x smaller working set and a word-parallel comparator. The
// cost is extra candidates (two different slots agree on their low
// nibble with probability 2^-4) that the full-width rescore drops.
const (
	prefilterBits = 4
	// laneMask keeps the part of a slot value the prefilter holds.
	laneMask = 1<<prefilterBits - 1
	// lanesPerWord is how many slots one arena word holds.
	lanesPerWord = 64 / prefilterBits
	// manifestBits is the bits key SaveDir writes: the one width older
	// builds accept. The prefilter is rebuilt from the full-width
	// segments at Open, so the key no longer describes what is resident.
	manifestBits = 8
)

// validBits checks a caller's packing width: 0 (the default) or 8, the
// width the manifest records.
func validBits(bits int) error {
	if bits != 0 && bits != manifestBits {
		return fmt.Errorf("bits: unsupported packing width %d (want %d)", bits, manifestBits)
	}
	return nil
}

// sigWords returns how many uint64 words one packed signature of
// `slots` lanes occupies. The last word may be partially used; its
// padding nibbles are always zero on every row, so they always match
// and a query's pad comes back off every count (see packedQuery).
func sigWords(slots int) int {
	if slots <= 0 {
		return 0
	}
	return (slots + lanesPerWord - 1) / lanesPerWord
}

// sigArena is a contiguous packed signature store: every record's
// signature occupies the same number of words, back to back, addressed
// by record index, with slot j's low nibble at nibble j%16 of the row's
// word j/16. Exact scans walk it cache-linearly instead of
// pointer-chasing per-record slices. The arena is not internally locked;
// the owning shard serializes access.
type sigArena struct {
	slots int
	words int // words per signature
	rows  int
	buf   []uint64
}

func newSigArena(slots int) *sigArena {
	return &sigArena{slots: slots, words: sigWords(slots)}
}

// appendSig packs the full-width slot values of sig onto the end of the
// arena, truncating each slot to its low nibble, and returns the new
// record's index.
func (a *sigArena) appendSig(sig []uint64) int {
	a.buf = packAppend(a.buf, sig)
	a.rows++
	return a.rows - 1
}

// block returns rows [i, i+n), aliasing the arena. It is only valid
// until the next appendSig (growth may reallocate); callers hold the
// shard lock across use.
func (a *sigArena) block(i, n int) []uint64 {
	return a.buf[i*a.words : (i+n)*a.words : (i+n)*a.words]
}

// row returns signature i's packed words (see block).
func (a *sigArena) row(i int) []uint64 { return a.block(i, 1) }

// usedBytes returns the bytes holding live signatures; capBytes the
// bytes allocated (append growth keeps headroom).
func (a *sigArena) usedBytes() int64 { return int64(a.rows*a.words) * 8 }
func (a *sigArena) capBytes() int64  { return int64(cap(a.buf)) * 8 }

// packAppend appends sig to p with slot j's low nibble at nibble j%16 of
// word j/16, the padding nibbles of a final partial word zero.
func packAppend(p []uint64, sig []uint64) []uint64 {
	for j, v := range sig {
		if j%lanesPerWord == 0 {
			p = append(p, 0)
		}
		p[len(p)-1] |= v & laneMask << (j % lanesPerWord * prefilterBits)
	}
	return p
}
