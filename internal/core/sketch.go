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

// Sketch is a compact fixed-size minhash signature of one record.
// Two sketches are comparable only if they share K, signature size,
// and slot width. Bits is in-memory state (zero means full-width
// slots): below 64 it marks a sketch reconstructed from a b-bit packed
// index, whose slot values are truncated lanes — mixing those with
// full-width sketches would silently score near-zero, so comparisons
// reject the mismatch instead (see compatible).
type Sketch struct {
	Name      string   `json:"name"`
	K         int      `json:"k"`
	Shingles  int      `json:"shingles"`
	Bits      int      `json:"-"`
	Signature []uint64 `json:"signature"`
}

// Sketcher converts records into minhash signatures. It is stateless
// and safe for concurrent use.
type Sketcher struct {
	k       int
	sigSize int
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
	return &Sketcher{k: k, sigSize: sigSize}, nil
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
func (s *Sketcher) SketchInto(sig []uint64, rec Record) int {
	if len(sig) != s.sigSize {
		panic(fmt.Sprintf("sketch: SketchInto buffer has %d slots, want %d", len(sig), s.sigSize))
	}
	data := rec.Data
	for i := range sig {
		sig[i] = emptySlot
	}
	k := s.k
	shingles := 0
	if len(data) >= k {
		shingles = len(data) - k + 1
		m := uint64(s.sigSize)
		// pow = hashBase^(k-1), the weight of the outgoing byte.
		var pow uint64 = 1
		for i := 0; i < k-1; i++ {
			pow *= hashBase
		}
		var h uint64
		for i := 0; i < k; i++ {
			h = h*hashBase + uint64(data[i]) + 1
		}
		v := mix64(h)
		slot, _ := bits.Mul64(v, m)
		if v < sig[slot] {
			sig[slot] = v
		}
		for i := k; i < len(data); i++ {
			h = (h-(uint64(data[i-k])+1)*pow)*hashBase + uint64(data[i]) + 1
			v := mix64(h)
			slot, _ := bits.Mul64(v, m)
			if v < sig[slot] {
				sig[slot] = v
			}
		}
		densify(sig)
	}
	return shingles
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
