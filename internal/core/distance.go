package core

import (
	"fmt"
	"math/bits"
)

// Result is one query/reference comparison.
type Result struct {
	Query      string  `json:"query"`
	Ref        string  `json:"ref"`
	Similarity float64 `json:"similarity"`
	Distance   float64 `json:"distance"`
}

// Similarity estimates the Jaccard similarity of the sets underlying
// two sketches as the fraction of matching minhash slots. Sketches with
// zero shingles (records shorter than K) are dissimilar to everything,
// as are degenerate zero-slot signatures. Sketches of different K or
// size are incomparable and return an error.
func Similarity(a, b *Sketch) (float64, error) {
	if err := compatible(a, b); err != nil {
		return 0, err
	}
	if len(a.Signature) == 0 || a.Shingles == 0 || b.Shingles == 0 {
		return 0, nil
	}
	return float64(matchingSlots(a.Signature, b.Signature)) / float64(len(a.Signature)), nil
}

// matchingSlots counts equal slots via a 4-wide unrolled comparison:
// four independent accumulators keep the adds off one dependency chain,
// and the slice re-slices hoist the bounds checks out of the body. The
// lengths of a and b must be equal (pre-checked by compatible).
func matchingSlots(a, b []uint64) int {
	var c0, c1, c2, c3 int
	i, n := 0, len(a)
	for ; i+4 <= n; i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		c0 += eqSlot(x[0], y[0])
		c1 += eqSlot(x[1], y[1])
		c2 += eqSlot(x[2], y[2])
		c3 += eqSlot(x[3], y[3])
	}
	for ; i < n; i++ {
		c0 += eqSlot(a[i], b[i])
	}
	return c0 + c1 + c2 + c3
}

// eqSlot is a branch-light bool-to-int compare (compiles to SETcc+ADD
// rather than a predicted branch per slot).
func eqSlot(x, y uint64) int {
	if x == y {
		return 1
	}
	return 0
}

// nibbleMatches counts the nibbles of row equal to q's, padding
// included: less the padding lanes, an upper bound on the rows' equal
// full-width slots. Both rows must have the same shape with zeroed
// padding nibbles. Four words' "nibble is nonzero" bits, shifted apart,
// share one popcount, so one word op compares 16 slots with no per-slot
// branch.
func nibbleMatches(q, row []uint64) int {
	row = row[:len(q)]
	i, m := 0, 0
	for ; i+4 <= len(q); i += 4 {
		a, b := q[i:i+4:i+4], row[i:i+4:i+4]
		m += 64 - bits.OnesCount64(nonzeroNibbles(a[0]^b[0])|nonzeroNibbles(a[1]^b[1])<<1|
			nonzeroNibbles(a[2]^b[2])<<2|nonzeroNibbles(a[3]^b[3])<<3)
	}
	for ; i < len(q); i++ {
		m += zeroNibbles(q[i] ^ row[i])
	}
	return m
}

// zeroNibbles counts the 4-bit lanes of x that are zero.
func zeroNibbles(x uint64) int { return 16 - bits.OnesCount64(nonzeroNibbles(x)) }

// nonzeroNibbles sets bit 0 of every nonzero 4-bit lane of x and clears
// the rest, branch-free: each lane's bits are OR-folded down to its
// lowest bit (the cross-lane garbage the shifts drag into upper bit
// positions never reaches bit 0 of a lane, because every shift distance
// is smaller than the lane width). Unlike the classic (x-lo)&^x&hi
// borrow trick, the OR fold is exact — borrows between lanes cannot
// miscount.
func nonzeroNibbles(x uint64) uint64 {
	x |= x >> 2
	x |= x >> 1
	return x & 0x1111111111111111
}

// Distance is 1 - Similarity.
func Distance(a, b *Sketch) (float64, error) {
	sim, err := Similarity(a, b)
	if err != nil {
		return 0, err
	}
	return 1 - sim, nil
}

func compatible(a, b *Sketch) error {
	if a.K != b.K {
		return fmt.Errorf("sketch: incompatible k: %d vs %d", a.K, b.K)
	}
	if len(a.Signature) != len(b.Signature) {
		return fmt.Errorf("sketch: incompatible signature sizes: %d vs %d",
			len(a.Signature), len(b.Signature))
	}
	return nil
}
