package core

import "fmt"

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
