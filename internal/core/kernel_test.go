package core

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// hasAVX2 and hasAVX512 keep what the CPU offers while tests force the
// selection flags.
var hasAVX2, hasAVX512 = useAVX2, useAVX512

// kernels lists the kernels this build and CPU offer: always
// "portable", then "avx2" and "avx512" where the CPU has them.
func kernels() []string {
	ks := []string{"portable"}
	if hasAVX2 {
		ks = append(ks, "avx2")
	}
	if hasAVX512 {
		ks = append(ks, "avx512")
	}
	return ks
}

// forceKernel makes matchSurvivors run the named kernel, wherever the
// row shape allows it, until the returned func restores the CPU's
// choice. Callers must not run in parallel with other scans.
func forceKernel(name string) (restore func()) {
	avx2, avx512 := useAVX2, useAVX512
	useAVX2 = name != "portable" && hasAVX2
	useAVX512 = name == "avx512" && hasAVX512
	return func() { useAVX2, useAVX512 = avx2, avx512 }
}

// eachKernel runs fn once per kernel this build and CPU offer, as a
// subtest named after it.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, k := range kernels() {
		t.Run(k, func(t *testing.T) {
			t.Cleanup(forceKernel(k))
			fn(t)
		})
	}
}

// naiveSurvivors is the per-nibble loop every kernel is pinned to; it
// shares no code with the SWAR comparator.
func naiveSurvivors(block, q []uint64, n, minCount int) []survivor {
	w := len(q)
	var out []survivor
	for i := 0; i < n; i++ {
		equal := 0
		for j := 0; j < w; j++ {
			x := block[i*w+j] ^ q[j]
			for s := 0; s < 64; s += 4 {
				if x>>s&0xf == 0 {
					equal++
				}
			}
		}
		if equal >= minCount {
			out = append(out, survivor{off: uint32(i), count: uint32(equal)})
		}
	}
	return out
}

// wordsAt returns a []uint64 of n words whose first word sits `off`
// bytes past a 64-byte boundary (off a multiple of 8), so the unaligned
// loads are exercised at every alignment an arena row can have.
func wordsAt(n, off int) []uint64 {
	buf := make([]uint64, n+8)
	for i := 0; i < 8; i++ {
		if uintptr(unsafe.Pointer(&buf[i]))%64 == uintptr(off) {
			return buf[i : i+n : i+n]
		}
	}
	panic("unreachable: eight consecutive words cover every 8-byte offset of a 64-byte window")
}

// checkSurvivors fills a query and n rows of lw words from data,
// cycling it — the query's words, then each row's — lays the rows out
// at byte offset off within a 64-byte window, and requires every kernel
// to return exactly the naive survivors, writing nothing outside dst.
func checkSurvivors(t *testing.T, data []byte, lw, n, off, minCount int) {
	t.Helper()
	if len(data) == 0 {
		data = []byte{0}
	}
	pos := 0
	next := func() uint64 {
		var word [8]byte
		for i := range word {
			word[i] = data[pos%len(data)]
			pos++
		}
		return binary.LittleEndian.Uint64(word[:])
	}
	q, block := make([]uint64, lw), wordsAt(n*lw, off)
	for j := range q {
		q[j] = next()
	}
	for j := range block {
		block[j] = next()
	}
	want := naiveSurvivors(block, q, n, minCount)
	// One spare entry on each side must stay untouched: a kernel writes
	// only within dst.
	guard := survivor{off: 0xA5A5A5A5, count: 0x5A5A5A5A}
	for _, kernel := range kernels() {
		got := make([]survivor, n+2)
		got[0], got[n+1] = guard, guard
		restore := forceKernel(kernel)
		k := matchSurvivors(got[1:n+1], block, q, minCount)
		restore()
		if got[0] != guard || got[n+1] != guard {
			t.Fatalf("%s kernel wrote outside dst (lw=%d n=%d off=%d minCount=%d)", kernel, lw, n, off, minCount)
		}
		if !slices.Equal(got[1:1+k], want) {
			t.Fatalf("%s kernel: survivors %v, want %v (lw=%d n=%d off=%d minCount=%d)",
				kernel, got[1:1+k], want, lw, n, off, minCount)
		}
	}
}

var (
	survivorWidths = []int{1, 4, 7, 8, 16}
	survivorBlocks = []int{0, 1, 2, 255, 256, 257}
)

// survivorFloor picks a minCount for rows of `lanes` nibbles: 0, 1,
// lanes, lanes+1, or one that sel places between them.
func survivorFloor(lanes int, sel uint8) int {
	switch sel % 8 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return lanes
	case 3:
		return lanes + 1
	}
	return lanes - int(sel>>3)%(lanes+1)
}

// oneLaneRows returns a query of lw words, all bytes v, followed by one
// row per lane that equals it except for bit `bit` (0x8, a signed
// compare's corner, or 0x1) of that lane's nibble: the rows
// checkSurvivors cycles through.
func oneLaneRows(lw int, v, bit byte) []byte {
	lanes, rowBytes := lw*16, lw*8
	data := make([]byte, (lanes+1)*rowBytes)
	for i := range data {
		data[i] = v
	}
	for p := 0; p < lanes; p++ {
		data[(p+1)*rowBytes+p/2] ^= bit << (p % 2 * 4)
	}
	return data
}

// FuzzMatchCounts pins the assembly to the reference: for arbitrary
// row and query bytes, at rows of 1, 4, 7, 8 and 16 words, every 8-byte
// alignment within a 64-byte window, the block lengths around the
// sweep's 256 (odd ones for the AVX2 kernel's row pairs) and floors from
// 0 to all lanes plus one, every kernel returns the survivors of a naive
// per-nibble loop, with their counts.
func FuzzMatchCounts(f *testing.F) {
	f.Add([]byte{0x00}, uint8(3), uint8(3), uint8(0), uint8(2)) // all lanes equal
	f.Add([]byte{0x00, 0x80, 0xFF}, uint8(0), uint8(1), uint8(1), uint8(1))
	f.Add([]byte{0xFF}, uint8(4), uint8(4), uint8(3), uint8(3))
	f.Add([]byte{0x88}, uint8(1), uint8(2), uint8(5), uint8(0))
	// All lanes different: a byte ramp of prime length never lines up
	// with itself at a row's offset from the query.
	ramp := make([]byte, 251)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	f.Add(ramp, uint8(3), uint8(5), uint8(7), uint8(4))
	// One lane differing in each position, in the nibble's top or bottom
	// bit, at floor lanes: every such row falls one short.
	for _, sel := range []uint8{1, 3} { // 4 and 8 words: the AVX2 and AVX-512 shapes
		for _, v := range []byte{0x00, 0xFF} {
			for _, bit := range []byte{0x8, 0x1} {
				f.Add(oneLaneRows(survivorWidths[sel], v, bit), sel, uint8(5), uint8(2), uint8(2))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, widthSel, blockSel, offSel, minSel uint8) {
		lw := survivorWidths[int(widthSel)%len(survivorWidths)]
		n := survivorBlocks[int(blockSel)%len(survivorBlocks)]
		checkSurvivors(t, data, lw, n, int(offSel%8)*8, survivorFloor(lw*16, minSel))
	})
}

// TestMatchCountsKernels is the deterministic half of FuzzMatchCounts:
// the grid of widths, block lengths, alignments and floors on random
// and on mostly-equal data, and the crafted rows — one lane differing in
// each position, in either end bit of its nibble, at the lane values a
// signed byte compare would get wrong.
func TestMatchCountsKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 4099)
	rng.Read(data)
	// Mostly-equal rows: long runs of one byte make nibbles collide.
	sparse := make([]byte, 4099)
	for i := range sparse {
		if rng.Intn(8) == 0 {
			sparse[i] = byte(rng.Intn(3)) * 0x88
		}
	}
	for _, lw := range append([]int{2, 3, 5}, survivorWidths...) {
		for _, n := range survivorBlocks {
			for off := 0; off < 64; off += 24 {
				for sel := uint8(0); sel < 5; sel++ {
					floor := survivorFloor(lw*16, sel+uint8(rng.Intn(32))*8)
					checkSurvivors(t, data, lw, n, off, floor)
					checkSurvivors(t, sparse, lw, n, off, floor)
				}
			}
		}
	}

	for _, lw := range survivorWidths {
		for _, v := range []byte{0x00, 0x80, 0xFF, 0x7F, 0x01} {
			for _, bit := range []byte{0x8, 0x1} {
				lanes := lw * 16
				data := oneLaneRows(lw, v, bit)
				for _, n := range []int{lanes, lanes + 1} {
					checkSurvivors(t, data, lw, n, 0, lanes)
					checkSurvivors(t, data, lw, n, 8, lanes-1)
				}
			}
		}
	}
}

// TestScanKernelSelection pins the selection rule: AVX-512 for rows
// of whole 64-byte vectors, AVX2 for whole 32-byte ones, each only when
// the CPU offers it.
func TestScanKernelSelection(t *testing.T) {
	vec64, vec32, long := "portable", "portable", "portable"
	if hasAVX2 {
		vec64, vec32 = "avx2", "avx2"
	}
	if hasAVX512 {
		vec64, long = "avx512", "avx512"
	}
	for _, c := range []struct {
		words int
		want  string
	}{
		{8, vec64}, {16, vec64}, {4, vec32}, {12, vec32},
		{maxAVX2Words, vec32}, {maxAVX2Words + 4, long}, {maxAVX2Words + 8, "portable"},
		{7, "portable"}, {1, "portable"}, {0, "portable"},
	} {
		if got := scanKernel(c.words); got != c.want {
			t.Errorf("scanKernel(%d words) = %q, want %q", c.words, got, c.want)
		}
	}
	// Stats reports the selection per index: the default geometry is the
	// widest vector shape, over a heap or a directory store.
	for _, dir := range []bool{false, true} {
		if got := engineAt(t, "kernel", dir).Stats().ScanKernel; got != vec64 {
			t.Errorf("Stats().ScanKernel dir=%v = %q, want %q", dir, got, vec64)
		}
	}
	for _, k := range kernels() {
		restore := forceKernel(k)
		got := scanKernel(8)
		restore()
		if got != k {
			t.Errorf("forced to %s, scanKernel = %q", k, got)
		}
	}
}
