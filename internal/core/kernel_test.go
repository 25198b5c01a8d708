package core

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"unsafe"
)

// usePortableKernel forces matchCounts onto the portable kernel for the
// rest of the test, so one binary exercises both. Tests that call it
// must not run in parallel with other scans.
func usePortableKernel(t *testing.T) {
	t.Helper()
	old := useAVX2
	useAVX2 = false
	t.Cleanup(func() { useAVX2 = old })
}

// eachKernel runs fn once per kernel this build and CPU offer: always
// "portable", and "avx2" when matchCounts would select it.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	t.Run("portable", func(t *testing.T) {
		usePortableKernel(t)
		fn(t)
	})
	if useAVX2 {
		t.Run("avx2", fn)
	}
}

// naiveMatchCounts is the per-byte (per-lane) loop both kernels are
// pinned to: it shares no code with the SWAR comparator.
func naiveMatchCounts(dst []uint16, rows, q []uint64, bits int) {
	mask := laneMask(bits)
	for i := range dst {
		row := rows[i*len(q) : (i+1)*len(q)]
		n := 0
		for w := range q {
			for s := 0; s < 64; s += bits {
				if (row[w]>>uint(s))&mask == (q[w]>>uint(s))&mask {
					n++
				}
			}
		}
		dst[i] = uint16(n)
	}
}

// wordsAt returns a []uint64 of n words whose first word sits `off`
// bytes past a 32-byte boundary (off a multiple of 8), so the unaligned
// loads are exercised at every alignment an arena row can have.
func wordsAt(n, off int) []uint64 {
	buf := make([]uint64, n+8)
	for i := 0; i < 4; i++ {
		if uintptr(unsafe.Pointer(&buf[i]))%32 == uintptr(off) {
			return buf[i : i+n : i+n]
		}
	}
	panic("unreachable: four consecutive words cover every 8-byte offset of a 32-byte window")
}

// checkMatchCounts fills n rows of `words` words (plus the query) from
// data, cycling it, lays the rows out at byte offset off within a
// 32-byte window, and requires active == portable == naive.
func checkMatchCounts(t *testing.T, data []byte, words, n, off, bits int) {
	t.Helper()
	if len(data) == 0 {
		data = []byte{0}
	}
	var word [8]byte
	pos := 0
	next := func() uint64 {
		for i := range word {
			word[i] = data[pos%len(data)]
			pos++
		}
		return binary.LittleEndian.Uint64(word[:])
	}
	q := make([]uint64, words)
	for i := range q {
		q[i] = next()
	}
	rows := wordsAt(n*words, off)
	for i := range rows {
		rows[i] = next()
	}
	want := make([]uint16, n)
	naiveMatchCounts(want, rows, q, bits)
	// One spare count on each side must stay untouched: the kernel
	// writes exactly n of them.
	const guard = 0xA5A5
	for name, kernel := range map[string]func([]uint16, []uint64, []uint64, int){
		"active": matchCounts, "portable": matchCountsPortable,
	} {
		got := make([]uint16, n+2)
		got[0], got[n+1] = guard, guard
		kernel(got[1:n+1], rows, q, bits)
		if got[0] != guard || got[n+1] != guard {
			t.Fatalf("%s kernel wrote outside dst (words=%d n=%d off=%d bits=%d)", name, words, n, off, bits)
		}
		for i, w := range want {
			if got[i+1] != w {
				t.Fatalf("%s kernel: row %d count = %d, want %d (words=%d n=%d off=%d bits=%d)",
					name, i, got[i+1], w, words, n, off, bits)
			}
		}
	}
}

var (
	matchCountsWidths = []int{4, 8, 16, 20}
	matchCountsBlocks = []int{0, 1, 255, 256, 257}
)

// FuzzMatchCounts pins the assembly to the reference: for arbitrary
// row and query bytes, at row widths of 1, 2, 4 and 5 vectors, every
// 8-byte alignment within a 32-byte window and the block lengths around
// the sweep's 256, the active kernel, the portable kernel and a naive
// per-lane loop agree.
func FuzzMatchCounts(f *testing.F) {
	f.Add([]byte{0x00}, uint8(2), uint8(3), uint8(0)) // all lanes equal
	f.Add([]byte{0x00, 0x80, 0xFF}, uint8(0), uint8(1), uint8(1))
	f.Add([]byte{0xFF}, uint8(3), uint8(4), uint8(3))
	f.Add([]byte{0x80}, uint8(1), uint8(2), uint8(2))
	// All lanes different: a byte ramp of prime length never lines up
	// with itself at a row's offset from the query.
	ramp := make([]byte, 251)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	f.Add(ramp, uint8(2), uint8(2), uint8(0))
	// One lane differing in each position: the query's bytes, then one
	// row per lane with that lane flipped; cycled, every block row is
	// the query or one of those.
	for sel, words := range matchCountsWidths[:2] {
		for _, v := range []byte{0x00, 0x80, 0xFF} {
			lanes := words * 8
			single := make([]byte, (lanes+1)*lanes)
			for i := range single {
				single[i] = v
			}
			for p := 0; p < lanes; p++ {
				single[(p+1)*lanes+p] ^= 0x80
			}
			f.Add(single, uint8(sel), uint8(3), uint8(1))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, widthSel, blockSel, offSel uint8) {
		words := matchCountsWidths[int(widthSel)%len(matchCountsWidths)]
		n := matchCountsBlocks[int(blockSel)%len(matchCountsBlocks)]
		checkMatchCounts(t, data, words, n, int(offSel%4)*8, 8)
	})
}

// TestMatchCountsKernels is the deterministic half of FuzzMatchCounts:
// the full grid of widths, block lengths and alignments on random
// data, every lane width, and the crafted rows — one lane differing in
// each position, and the lane values a signed byte compare or a
// carry-borrow trick would get wrong.
func TestMatchCountsKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 4099)
	rng.Read(data)
	// Mostly-equal rows: long runs of one byte make lanes collide.
	sparse := make([]byte, 4099)
	for i := range sparse {
		if rng.Intn(8) == 0 {
			sparse[i] = byte(rng.Intn(3)) * 0x80
		}
	}
	for _, bits := range []int{8, 64} {
		for _, words := range append([]int{1, 3, 5}, matchCountsWidths...) {
			for _, n := range matchCountsBlocks {
				for off := 0; off < 32; off += 8 {
					checkMatchCounts(t, data, words, n, off, bits)
					checkMatchCounts(t, sparse, words, n, off, bits)
				}
			}
		}
	}

	for _, words := range matchCountsWidths {
		for _, v := range []byte{0x00, 0x80, 0xFF, 0x7F, 0x01} {
			q := make([]uint64, words)
			for i := range q {
				q[i] = 0x0101010101010101 * uint64(v)
			}
			lanes := words * 8
			// Row p equals q except lane p; the last row equals q.
			rows := make([]uint64, (lanes+1)*words)
			for p := 0; p <= lanes; p++ {
				row := rows[p*words : (p+1)*words]
				copy(row, q)
				if p < lanes {
					row[p/8] ^= uint64(0x80) << uint(p%8*8)
				}
			}
			got := make([]uint16, lanes+1)
			matchCounts(got, rows, q, 8)
			for p, c := range got {
				want := lanes - 1
				if p == lanes {
					want = lanes
				}
				if int(c) != want {
					t.Fatalf("words=%d lane value %#x: row differing in lane %d counted %d, want %d", words, v, p, c, want)
				}
			}
		}
	}
}

// TestScanKernelSelection pins the selection rule: AVX2 only when the
// CPU offers it and only for 8-bit rows of whole 32-byte vectors.
func TestScanKernelSelection(t *testing.T) {
	active := "portable"
	if useAVX2 {
		active = "avx2"
	}
	for _, c := range []struct {
		words, bits int
		want        string
	}{
		{16, 8, active}, {4, 8, active}, {maxAVX2Words, 8, active},
		{maxAVX2Words + 4, 8, "portable"}, {13, 8, "portable"},
		{128, 64, "portable"},
	} {
		if got := scanKernel(c.words, c.bits); got != c.want {
			t.Errorf("scanKernel(%d words, %d bits) = %q, want %q", c.words, c.bits, got, c.want)
		}
	}
	// Stats reports the selection per index: the default geometry at 8
	// bits is the AVX2 shape, full-width rows never are.
	for bits, want := range map[int]string{8: active, 64: "portable"} {
		if got := engineAt(t, "kernel", bits).Stats().ScanKernel; got != want {
			t.Errorf("Stats().ScanKernel at %d bits = %q, want %q", bits, got, want)
		}
	}
	usePortableKernel(t)
	if got := scanKernel(16, 8); got != "portable" {
		t.Errorf("with AVX2 unavailable scanKernel = %q, want portable", got)
	}
}
