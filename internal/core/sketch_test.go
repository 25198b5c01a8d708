package core

import (
	"bytes"
	"math"
	"testing"
)

func mustSketcher(t *testing.T, k, size int) *Sketcher {
	t.Helper()
	s, err := NewSketcher(k, size)
	if err != nil {
		t.Fatalf("NewSketcher(%d, %d): %v", k, size, err)
	}
	return s
}

func TestNewSketcherValidation(t *testing.T) {
	for _, tc := range []struct{ k, size int }{{0, 128}, {-1, 128}, {8, 0}, {8, -4}} {
		if _, err := NewSketcher(tc.k, tc.size); err == nil {
			t.Errorf("NewSketcher(%d, %d): want error, got nil", tc.k, tc.size)
		}
	}
}

func TestSketchDeterministic(t *testing.T) {
	s := mustSketcher(t, 4, 64)
	data := []byte("the quick brown fox jumps over the lazy dog")
	a := s.Sketch(Record{Name: "a", Data: data})
	b := s.Sketch(Record{Name: "b", Data: data})
	if !equalSig(a.Signature, b.Signature) {
		t.Fatal("same data produced different signatures")
	}
	if a.Shingles != len(data)-4+1 {
		t.Fatalf("shingles = %d, want %d", a.Shingles, len(data)-4+1)
	}
	sim, err := Similarity(a, b)
	if err != nil || sim != 1 {
		t.Fatalf("self similarity = %v, %v; want 1, nil", sim, err)
	}
}

func TestSketchShortRecord(t *testing.T) {
	s := mustSketcher(t, 8, 32)
	sk := s.Sketch(Record{Name: "short", Data: []byte("abc")})
	if sk.Shingles != 0 {
		t.Fatalf("shingles = %d, want 0", sk.Shingles)
	}
	for i, v := range sk.Signature {
		if v != math.MaxUint64 {
			t.Fatalf("slot %d = %d, want MaxUint64", i, v)
		}
	}
	// Two empty sketches must not look identical.
	other := s.Sketch(Record{Name: "short2", Data: []byte("xy")})
	sim, err := Similarity(sk, other)
	if err != nil || sim != 0 {
		t.Fatalf("empty-vs-empty similarity = %v, %v; want 0, nil", sim, err)
	}
}

func TestSimilarityDisjointAndSimilar(t *testing.T) {
	s := mustSketcher(t, 8, 256)
	a := s.Sketch(Record{Name: "a", Data: bytes.Repeat([]byte("abcdefghij"), 50)})
	b := s.Sketch(Record{Name: "b", Data: bytes.Repeat([]byte("0123456789"), 50)})
	sim, err := Similarity(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sim > 0.05 {
		t.Fatalf("disjoint similarity = %f, want ~0", sim)
	}
	// Nearly-identical records must be highly similar.
	data := bytes.Repeat([]byte("the quick brown fox "), 40)
	mutated := append([]byte{}, data...)
	mutated[len(mutated)/2] = 'X'
	c := s.Sketch(Record{Name: "c", Data: data})
	d := s.Sketch(Record{Name: "d", Data: mutated})
	sim, err = Similarity(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if sim < 0.5 {
		t.Fatalf("near-identical similarity = %f, want > 0.5", sim)
	}
	dist, err := Distance(c, d)
	if err != nil || math.Abs(dist-(1-sim)) > 1e-12 {
		t.Fatalf("distance = %v, %v; want %f", dist, err, 1-sim)
	}
}

func TestSimilarityIncompatible(t *testing.T) {
	a := mustSketcher(t, 4, 64).Sketch(Record{Name: "a", Data: []byte("abcdefgh")})
	b := mustSketcher(t, 8, 64).Sketch(Record{Name: "b", Data: []byte("abcdefgh")})
	if _, err := Similarity(a, b); err == nil {
		t.Fatal("mismatched k: want error")
	}
	c := mustSketcher(t, 4, 32).Sketch(Record{Name: "c", Data: []byte("abcdefgh")})
	if _, err := Similarity(a, c); err == nil {
		t.Fatal("mismatched signature size: want error")
	}
}

func TestEachShingleHashRolling(t *testing.T) {
	// The rolling hash must agree with a direct recomputation of each window.
	data := []byte("abcdefghijklmnopqrstuvwxyz")
	const k = 5
	var rolled []uint64
	eachShingleHash(data, k, func(h uint64) { rolled = append(rolled, h) })
	if len(rolled) != len(data)-k+1 {
		t.Fatalf("got %d hashes, want %d", len(rolled), len(data)-k+1)
	}
	for i := range rolled {
		var direct uint64
		for _, b := range data[i : i+k] {
			direct = direct*hashBase + uint64(b) + 1
		}
		if rolled[i] != direct {
			t.Fatalf("window %d: rolling %d != direct %d", i, rolled[i], direct)
		}
	}
}

// FuzzEachShingleHash cross-checks the O(n) rolling hash against a
// direct polynomial recomputation of every window, over fuzzer-chosen
// payloads and shingle lengths. Run with `go test -fuzz=FuzzEachShingleHash
// ./internal/core` to explore beyond the seed corpus.
func FuzzEachShingleHash(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), 4)
	f.Add([]byte("aaaaaaaaaaaaaaaa"), 1)
	f.Add([]byte{0x00, 0xff, 0x00, 0xff, 0x7f}, 2)
	f.Add([]byte("ab"), 8) // shorter than k: no windows
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		// Keep k in the meaningful range; pow and the window loop are
		// well-defined for any positive k, but huge k just means zero
		// windows for every input the fuzzer can build.
		if k < 1 || k > 64 {
			t.Skip()
		}
		var rolled []uint64
		eachShingleHash(data, k, func(h uint64) { rolled = append(rolled, h) })
		want := len(data) - k + 1
		if want < 0 {
			want = 0
		}
		if len(rolled) != want {
			t.Fatalf("len(data)=%d k=%d: got %d hashes, want %d", len(data), k, len(rolled), want)
		}
		for i := range rolled {
			var direct uint64
			for _, b := range data[i : i+k] {
				direct = direct*hashBase + uint64(b) + 1
			}
			if rolled[i] != direct {
				t.Fatalf("window %d: rolling %#x != direct %#x", i, rolled[i], direct)
			}
		}
	})
}

func equalSig(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// eachShingleHash is the reference the inlined rolling hash in SketchInto
// is checked against: it calls fn with a 64-bit hash of every k-byte window of
// data, using an O(n) polynomial rolling hash.
func eachShingleHash(data []byte, k int, fn func(uint64)) {
	if k <= 0 || len(data) < k {
		return
	}
	// pow = hashBase^(k-1), the weight of the outgoing byte.
	var pow uint64 = 1
	for i := 0; i < k-1; i++ {
		pow *= hashBase
	}
	var h uint64
	for i := 0; i < k; i++ {
		h = h*hashBase + uint64(data[i]) + 1
	}
	fn(h)
	for i := k; i < len(data); i++ {
		h = (h-(uint64(data[i-k])+1)*pow)*hashBase + uint64(data[i]) + 1
		fn(h)
	}
}
