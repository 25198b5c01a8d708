package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"strings"
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

// referenceSketch is the production loop's reference: every window's
// eachShingleHash value whitened, routed by its high bits, a branchy
// per-slot minimum, then densify.
func referenceSketch(data []byte, k, size int) ([]uint64, int) {
	sig := make([]uint64, size)
	for i := range sig {
		sig[i] = emptySlot
	}
	n := 0
	eachShingleHash(data, k, func(h uint64) {
		n++
		v := mix64(h)
		slot, _ := bits.Mul64(v, uint64(size))
		if v < sig[slot] {
			sig[slot] = v
		}
	})
	if n > 0 {
		densify(sig)
	}
	return sig, n
}

// FuzzSketchMatchesReference runs SketchInto itself — not a test copy of
// its loop — against referenceSketch over fuzzer-chosen payloads, k in
// 1..64 and signature sizes 1..512, powers of two or not.
func FuzzSketchMatchesReference(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), 8, 128)
	f.Add([]byte{0x00, 0xff, 0x00, 0xff, 0xff, 0x00, 0x7f}, 1, 1)
	f.Add(bytes.Repeat([]byte{0xff}, 300), 13, 100)
	f.Add(bytes.Repeat([]byte{0x00}, 70), 64, 512)
	f.Add([]byte("ab"), 8, 3) // shorter than k: no shingles
	f.Fuzz(func(t *testing.T, data []byte, k, size int) {
		k, size = 1+int(uint(k)%64), 1+int(uint(size)%512)
		sig := make([]uint64, size)
		n := mustSketcher(t, k, size).SketchInto(sig, Record{Data: data})
		want, wantN := referenceSketch(data, k, size)
		if n != wantN || !equalSig(sig, want) {
			t.Fatalf("len(data)=%d k=%d size=%d: SketchInto (%d shingles) diverges from the reference (%d)",
				len(data), k, size, n, wantN)
		}
	})
}

// TestNewSketcherHugeK: k comes from a manifest, checked only for > 0, so
// building a sketcher must not cost O(k); a record shorter than k still
// sketches to no shingles and an all-empty signature.
func TestNewSketcherHugeK(t *testing.T) {
	for _, k := range []int{1 << 40, math.MaxInt} {
		s := mustSketcher(t, k, 128)
		sk := s.Sketch(Record{Name: "short", Data: []byte("a record far shorter than k")})
		if sk.Shingles != 0 {
			t.Fatalf("k=%d: shingles = %d, want 0", k, sk.Shingles)
		}
		for i, v := range sk.Signature {
			if v != emptySlot {
				t.Fatalf("k=%d: slot %d = %#x, want emptySlot", k, i, v)
			}
		}
	}
}

// sketchGoldenText renders, for seeded inputs over a grid of shingle
// lengths, signature sizes and record lengths (around k and well past
// it), each signature's shingle count and the SHA-256 of its slot words
// in little-endian order: the words segments and WAL frames store.
func sketchGoldenText(t *testing.T) string {
	var out strings.Builder
	for _, k := range []int{1, 4, 8, 9, 13} {
		for _, size := range []int{16, 100, 128, 256} {
			s := mustSketcher(t, k, size)
			for _, n := range []int{k - 1, k, k + 1, 257, 4096} {
				data := make([]byte, n)
				rand.New(rand.NewSource(int64(k*1_000_003 + size*1009 + n))).Read(data)
				sk := s.Sketch(Record{Name: "g", Data: data})
				words := make([]byte, 0, 8*size)
				for _, v := range sk.Signature {
					words = binary.LittleEndian.AppendUint64(words, v)
				}
				fmt.Fprintf(&out, "k=%d size=%d len=%d shingles=%d sha256=%x\n", k, size, n, sk.Shingles, sha256.Sum256(words))
			}
		}
	}
	return out.String()
}

// TestSketchSignaturesGolden pins SketchInto's output to
// testdata/sketch_signatures.golden, written at the commit before the
// branch-free loop: a drift would silently mis-score every stored index.
func TestSketchSignaturesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/sketch_signatures.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sketchGoldenText(t); got != string(want) {
		t.Fatalf("signatures differ from the golden file\n got:\n%s\nwant:\n%s", got, want)
	}
}
