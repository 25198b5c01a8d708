package core

import (
	"bytes"
	"math"
	"math/bits"
	"testing"
)

// TestOPHDensificationFillsSparseSignatures drives the sparse regime:
// a handful of distinct shingles routed into a much larger signature
// leaves most slots empty, and densification must fill every one of
// them deterministically without making unrelated records look alike.
func TestOPHDensificationFillsSparseSignatures(t *testing.T) {
	s := mustSketcher(t, 4, 256)
	// Period-10 payload: only 10 distinct 4-byte shingles over 256 slots.
	data := bytes.Repeat([]byte("abcdefghij"), 10)
	a := s.Sketch(Record{Name: "a", Data: data})
	for i, v := range a.Signature {
		if v == emptySlot {
			t.Fatalf("slot %d still empty after densification", i)
		}
	}
	b := s.Sketch(Record{Name: "b", Data: data})
	if !equalSig(a.Signature, b.Signature) {
		t.Fatal("same sparse data produced different densified signatures")
	}
	if sim, err := Similarity(a, b); err != nil || sim != 1 {
		t.Fatalf("densified self similarity = %v, %v; want 1, nil", sim, err)
	}
	// A disjoint sparse record must not inherit similarity through its
	// densified slots.
	other := s.Sketch(Record{Name: "c", Data: bytes.Repeat([]byte("0123456789"), 10)})
	if sim, err := Similarity(a, other); err != nil || sim > 0.2 {
		t.Fatalf("disjoint sparse similarity = %v, %v; want ~0", sim, err)
	}
}

// TestSketchOPHMatchesReference rebuilds OPH signatures through the
// shared eachShingleHash helper — route each whitened hash by its high
// bits, keep per-slot minima, densify — and requires the speed-inlined
// rolling hash inside SketchInto to produce the identical signature.
// This pins the duplicated hash loop to its reference: a change to one
// copy but not the other fails here deterministically instead of
// drifting past the statistical agreement test.
func TestSketchOPHMatchesReference(t *testing.T) {
	cases := []struct {
		k, size int
		data    []byte
	}{
		{8, 128, benchData(4096, 42)},
		{4, 64, []byte("the quick brown fox jumps over the lazy dog")},
		{3, 32, bytes.Repeat([]byte("abcdef"), 10)}, // sparse: densification active
		{5, 16, benchData(17, 7)},
		{9, 128, []byte("too short")}, // exactly k bytes: one shingle
	}
	for _, tc := range cases {
		s := mustSketcher(t, tc.k, tc.size)
		got := s.Sketch(Record{Name: "x", Data: tc.data})
		want := make([]uint64, tc.size)
		for i := range want {
			want[i] = emptySlot
		}
		n := 0
		eachShingleHash(tc.data, tc.k, func(h uint64) {
			n++
			v := mix64(h)
			slot, _ := bits.Mul64(v, uint64(tc.size))
			if v < want[slot] {
				want[slot] = v
			}
		})
		if n > 0 {
			densify(want)
		}
		if got.Shingles != n {
			t.Errorf("k=%d size=%d: shingles = %d, want %d", tc.k, tc.size, got.Shingles, n)
		}
		if !equalSig(got.Signature, want) {
			t.Errorf("k=%d size=%d: inlined OPH signature diverges from eachShingleHash reference",
				tc.k, tc.size)
		}
	}
}

// exactJaccard computes the true Jaccard similarity of the k-shingle
// hash sets of two payloads, as ground truth for the estimator test.
func exactJaccard(a, b []byte, k int) float64 {
	setA := make(map[uint64]struct{})
	eachShingleHash(a, k, func(h uint64) { setA[h] = struct{}{} })
	setB := make(map[uint64]struct{})
	eachShingleHash(b, k, func(h uint64) { setB[h] = struct{}{} })
	if len(setA) == 0 && len(setB) == 0 {
		return 0
	}
	inter := 0
	for h := range setA {
		if _, ok := setB[h]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(setA)+len(setB)-inter)
}

// TestOPHTracksExactJaccardOnPlantedOverlap is the statistical property
// test for the estimator: across planted-overlap corpora the OPH
// estimate must track the exact set Jaccard. Averaging 16 pairs per
// overlap level shrinks the single-sketch standard error
// (~1/sqrt(128) ~= 0.09) well below the tolerance; everything is
// deterministic in the seeds.
func TestOPHTracksExactJaccardOnPlantedOverlap(t *testing.T) {
	const (
		k        = 8
		size     = 128
		pairs    = 16
		recBytes = 2048
	)
	oph := mustSketcher(t, k, size)
	for _, overlap := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		var ophSum, exactSum float64
		for p := 0; p < pairs; p++ {
			seed := int64(overlap*1000) + int64(p)*7919
			shared := benchData(int(overlap*recBytes), seed)
			tailA := benchData(recBytes-len(shared), seed+500_000)
			tailB := benchData(recBytes-len(shared), seed+900_000)
			dataA := append(append([]byte{}, shared...), tailA...)
			dataB := append(append([]byte{}, shared...), tailB...)

			sim, err := Similarity(oph.Sketch(Record{Name: "a", Data: dataA}), oph.Sketch(Record{Name: "b", Data: dataB}))
			if err != nil {
				t.Fatal(err)
			}
			ophSum += sim
			exactSum += exactJaccard(dataA, dataB, k)
		}
		meanOPH, meanExact := ophSum/pairs, exactSum/pairs
		if d := math.Abs(meanOPH - meanExact); d > 0.12 {
			t.Errorf("overlap %.1f: oph estimate %.3f is off exact Jaccard %.3f by %.3f",
				overlap, meanOPH, meanExact, d)
		}
	}
}

// TestSimilarityDegenerateSketchParams is the regression test for the
// zero-length-signature divide: hand-built sketches with empty
// signatures must compare as dissimilar, never NaN.
func TestSimilarityDegenerateSketchParams(t *testing.T) {
	a := &Sketch{Name: "a", K: 4, Shingles: 3, Signature: nil}
	b := &Sketch{Name: "b", K: 4, Shingles: 5, Signature: []uint64{}}
	sim, err := Similarity(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sim != 0 || math.IsNaN(sim) {
		t.Fatalf("zero-slot similarity = %v, want 0", sim)
	}
	dist, err := Distance(a, b)
	if err != nil || dist != 1 {
		t.Fatalf("zero-slot distance = %v, %v; want 1, nil", dist, err)
	}
	// The constructors still reject the degenerate parameters outright.
	if _, err := NewSketcher(4, 0); err == nil {
		t.Fatal("NewSketcher with sigSize 0: want error")
	}
}
