package core

import (
	"fmt"
	"math"
	"math/bits"
)

// Default sketching parameters. K follows common shingle lengths for
// text/sequence data; 128 slots gives a Jaccard standard error of
// about 1/sqrt(128) ~= 0.09.
const (
	DefaultK             = 8
	DefaultSignatureSize = 128
)

// Scheme names how shingle hashes are folded into a signature. It is
// recorded in index metadata and reported by /stats; readers of
// persisted metadata reject any value but SchemeOPH.
type Scheme string

// SchemeOPH is one-permutation hashing with rotation densification:
// each shingle is hashed once and routed to one slot, so sketching
// costs O(n + sigSize) instead of O(n * sigSize). The only scheme.
const SchemeOPH Scheme = "oph"

// hashBase is the multiplier for the polynomial rolling hash over
// shingles (the 64-bit FNV prime).
const hashBase uint64 = 1099511628211

// emptySlot marks an OPH slot no shingle hashed into. A genuine hash
// value can collide with it only with probability 2^-64 per shingle;
// such a slot is densified like an empty one, which keeps sketching
// deterministic and merely costs one slot of resolution.
const emptySlot uint64 = math.MaxUint64

// densifyStep offsets borrowed slot values by the borrow distance
// during densification, so different gap patterns stay distinguishable
// (Shrivastava & Li, "Improved Densification of One Permutation
// Hashing").
const densifyStep uint64 = 0x9e3779b97f4a7c15

// Record is one named input to the sketching stage.
type Record struct {
	Name string
	Data []byte
}

// Sketch is a compact fixed-size minhash signature of one record. Its
// slots always hold full-width minhash values. Two sketches are
// comparable only if they share K and signature size.
type Sketch struct {
	Name      string   `json:"name"`
	K         int      `json:"k"`
	Shingles  int      `json:"shingles"`
	Signature []uint64 `json:"signature"`
}

// Sketcher converts records into minhash signatures. It is read-only
// after NewSketcher and safe for concurrent use.
type Sketcher struct {
	k       int
	sigSize int
	out     [256]uint64 // out[b] = (b+1)·hashBase^k: what byte b leaving a window takes off the rolled hash
}

// NewSketcher returns a sketcher producing sigSize-slot signatures over
// k-byte shingles.
func NewSketcher(k, sigSize int) (*Sketcher, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sketcher: k must be positive, got %d", k)
	}
	if sigSize <= 0 {
		return nil, fmt.Errorf("sketcher: signature size must be positive, got %d", sigSize)
	}
	s := &Sketcher{k: k, sigSize: sigSize}
	// hashBase^k by square-and-multiply: k can come from a manifest, so
	// an O(k) loop here would let one crafted field hang Open.
	pow, base := uint64(1), hashBase
	for e := uint(k); e > 0; e >>= 1 {
		if e&1 != 0 {
			pow *= base
		}
		base *= base
	}
	for b := range s.out {
		s.out[b] = uint64(b+1) * pow
	}
	return s, nil
}

// K returns the shingle length.
func (s *Sketcher) K() int { return s.k }

// SignatureSize returns the number of minhash slots.
func (s *Sketcher) SignatureSize() int { return s.sigSize }

// Sketch computes the minhash signature of rec. Records shorter than K
// produce zero shingles and an empty (all-max) signature; such sketches
// compare as dissimilar to everything, including each other.
func (s *Sketcher) Sketch(rec Record) *Sketch {
	sig := make([]uint64, s.sigSize)
	shingles := s.SketchInto(sig, rec)
	return &Sketch{Name: rec.Name, K: s.k, Shingles: shingles, Signature: sig}
}

// SketchInto is the emit-into-buffer form of Sketch: it writes rec's
// signature into sig — whose length must be SignatureSize — and returns
// the shingle count, allocating nothing. It is the building block of
// zero-alloc pipelines that sketch straight into pooled buffers or a
// packed arena row.
//
// Each shingle is hashed once (an O(n) polynomial rolling hash,
// whitened by mix64) and routed to slot floor(h * sigSize / 2^64) — the
// high bits of h, equal to h >> (64 - log2(sigSize)) when sigSize is a
// power of two — keeping the per-slot minimum. Empty slots are then
// densified by rotation so sparse records still compare correctly. The
// rolling hash is inlined rather than driven through a per-shingle
// callback because the closure call costs ~25% of the whole pipeline at
// these speeds.
//
// The loop is branch-free, which is most of its speed: a slot's minimum
// is kept with min (a conditional move and one store a shingle), where
// an if taken for about one shingle in six of a 2 KiB record, in no
// order a predictor can learn, made the loop mispredict-bound. And the
// outgoing byte's term, (b+1)·hashBase^k, is read from the Sketcher's
// out table rather than multiplied, so rolling the hash is one multiply.
// Both keep every signature word what the textbook loop computes
// (referenceSketch in the tests; segments and WAL frames store them).
func (s *Sketcher) SketchInto(sig []uint64, rec Record) int {
	if len(sig) != s.sigSize {
		panic(fmt.Sprintf("sketch: SketchInto buffer has %d slots, want %d", len(sig), s.sigSize))
	}
	data := rec.Data
	for i := range sig {
		sig[i] = emptySlot
	}
	k := s.k
	if len(data) < k {
		return 0
	}
	m := uint64(len(sig))
	var h uint64
	for _, c := range data[:k] {
		h = h*hashBase + uint64(c) + 1
	}
	v := mix64(h)
	slot, _ := bits.Mul64(v, m)
	sig[slot] = min(sig[slot], v)
	in := data[k:]
	gone := data[:len(in)] // gone[i] leaves the window as in[i] enters
	for i, c := range in {
		h = h*hashBase + (uint64(c) + 1 - s.out[gone[i]])
		v := mix64(h)
		slot, _ := bits.Mul64(v, m)
		sig[slot] = min(sig[slot], v)
	}
	densify(sig)
	return len(data) - k + 1
}

// densify fills every empty OPH slot by rotation: an empty slot borrows
// the value of the nearest filled slot to its right (circularly),
// offset by densifyStep per step of distance. Identical shingle sets
// therefore still produce identical signatures, and partially
// overlapping sets keep matching on borrowed slots only when both the
// donor value and the gap pattern agree. No-op when every slot is
// filled; leaves an all-empty signature untouched (the caller treats
// zero-shingle sketches as dissimilar to everything).
func densify(sig []uint64) {
	first := -1
	for i, v := range sig {
		if v != emptySlot {
			first = i
			break
		}
	}
	if first < 0 {
		return
	}
	m := len(sig)
	// Scan right-to-left tracking the nearest originally-filled slot at
	// or after each position; slots past the last filled one wrap to
	// `first` in the next turn of the circle.
	src := first + m
	for i := m - 1; i >= 0; i-- {
		if sig[i] != emptySlot {
			src = i
			continue
		}
		d := uint64(src - i)
		sig[i] = sig[src%m] + d*densifyStep
	}
}

// mix64 is the SplitMix64 finalizer; it whitens the weakly-mixed
// rolling hash before minhash slot derivation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
