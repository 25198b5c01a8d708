package core

import (
	"fmt"
	"math/bits"
)

// The signature arena is every index's resident prefilter. Full-width
// signatures live in the shard's fullStore — on-disk segments for a
// directory index, a heap head for an in-memory one — and the arena keeps
// only the low nibble of every slot (b-bit minwise hashing), bit-sliced:
// plane p holds bit p of every slot's nibble, 64 slots a word. Two slots
// agree on their nibble when they agree in all four planes, so a row's
// count of nibbles equal to the query's is 64w − popcount(OR over the
// planes of row^query), w words a plane; and the first planes alone
// already bound that count from above, so a scan can drop most rows
// after reading one plane. The cost of the prefilter is extra candidates
// (two different slots agree on their low nibble with probability 2^-4)
// that the full-width rescore drops.
const (
	// prefilterBits is the nibble width, which is also the plane count.
	prefilterBits = 4
	// laneMask keeps the part of a slot value the prefilter holds.
	laneMask = 1<<prefilterBits - 1
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

// sigWords returns how many uint64 words one plane of a signature of
// `slots` slots occupies; a packed row is prefilterBits times that. The
// last word may be partially used; its padding bits are always zero on
// every row, so they always match and a query's pad comes back off
// every count (see packedQuery).
func sigWords(slots int) int {
	if slots <= 0 {
		return 0
	}
	return (slots + 63) / 64
}

// sigArena is the packed prefilter of one stripe, addressed by record
// index and stored in chunks of sweepBlock rows, one scan-kernel call
// each. A row is prefilterBits*w words: word j of plane p is its column
// p*w + j. Inside a chunk, column c holds that word for every row back to
// back, at chunk[c*sweepBlock+r] for the chunk's row r, so a kernel
// reads one plane of a run of rows as contiguous memory and never
// touches the planes it does not need. A chunk is allocated whole; rows
// past the stripe's end read as zero. The arena is not internally
// locked; the owning shard serializes access.
type sigArena struct {
	words  int // words per plane of one row
	rows   int
	chunks [][]uint64
}

func newSigArena(slots int) *sigArena {
	return &sigArena{words: sigWords(slots)}
}

// appendSig packs the full-width slot values of sig onto the end of the
// arena, truncating each slot to its low nibble, and returns the new
// record's index.
func (a *sigArena) appendSig(sig []uint64) int {
	r := a.rows % sweepBlock
	if r == 0 {
		a.chunks = append(a.chunks, make([]uint64, sweepBlock*prefilterBits*a.words))
	}
	packPlanes(a.chunks[len(a.chunks)-1][r:], sweepBlock, sig)
	a.rows++
	return a.rows - 1
}

// rowMatches returns row idx's count of nibbles equal to q's, padding
// included: what a kernel counts for a row that reaches its last check.
// It is the candidate pass's count.
func (a *sigArena) rowMatches(idx int, q []uint64) int {
	row, w, m := a.chunks[idx/sweepBlock][idx%sweepBlock:], a.words, 0
	for j := range w {
		var x uint64
		for c := j; c < len(q); c += w {
			x |= row[c*sweepBlock] ^ q[c]
		}
		m += bits.OnesCount64(x)
	}
	return 64*w - m
}

// usedBytes returns the bytes holding live signatures; capBytes the
// bytes allocated (the last chunk's unfilled rows).
func (a *sigArena) usedBytes() int64 { return int64(a.rows*prefilterBits*a.words) * 8 }
func (a *sigArena) capBytes() int64 {
	return int64(len(a.chunks)*sweepBlock*prefilterBits*a.words) * 8
}

// packPlanes writes sig's low nibbles to dst as prefilterBits planes of
// w = sigWords(len(sig)) words, column c at dst[c*stride]: bit s%64 of
// plane p's word s/64 is bit p of slot s's nibble, and the padding bits
// past the last slot are zero. Eight slots at a time are gathered one
// nibble a byte lane; then per plane a shift moves bit p of every lane to
// the lane's top bit, and one multiply collects the eight top bits into
// the top byte (the partial products land on distinct bits, so nothing
// carries).
func packPlanes(dst []uint64, stride int, sig []uint64) {
	w := sigWords(len(sig))
	for j := 0; j < w; j++ {
		var planes [prefilterBits]uint64
		for g := 0; g < 8 && j*64+g*8 < len(sig); g++ {
			s := j*64 + g*8
			var x uint64
			for i, v := range sig[s:min(s+8, len(sig))] {
				x |= (v & laneMask) << (8 * i)
			}
			for p := range planes {
				planes[p] |= (x << (7 - p) & 0x8080808080808080) * 0x0002040810204081 >> 56 << (8 * g)
			}
		}
		for p, v := range planes {
			dst[(p*w+j)*stride] = v
		}
	}
}
