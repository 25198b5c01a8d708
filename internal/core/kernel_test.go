package core

import (
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

// forceKernel makes matchSurvivors run the named kernel until the
// returned func restores the CPU's choice. Callers must not run in
// parallel with other scans.
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

// naiveMatches is the per-slot loop every kernel and the packer are
// pinned to: the slots of row whose low nibble equals q's, plus the
// padding bits a plane carries past the last slot (they always match).
// It shares no code with the packed comparators.
func naiveMatches(q, row []uint64) int {
	equal := 64*sigWords(len(q)) - len(q)
	for s := range q {
		if q[s]&0xf == row[s]&0xf {
			equal++
		}
	}
	return equal
}

// wordsAt returns a []uint64 of n words whose first word sits `off`
// bytes past a 64-byte boundary (off a multiple of 8), so the unaligned
// loads are exercised at every alignment an arena chunk can have.
func wordsAt(n, off int) []uint64 {
	buf := make([]uint64, n+8)
	for i := 0; i < 8; i++ {
		if uintptr(unsafe.Pointer(&buf[i]))%64 == uintptr(off) {
			return buf[i : i+n : i+n]
		}
	}
	panic("unreachable: eight consecutive words cover every 8-byte offset of a 64-byte window")
}

// kernelCase is one query and a full chunk of rows, as full-width
// signatures and packed: the arena the rows were appended to, and the
// query's plane image.
type kernelCase struct {
	q      []uint64
	rows   [][]uint64
	arena  *sigArena
	packed []uint64
}

// newKernelCase packs q and rows — sweepBlock of them, so every kernel
// call below covers part of one chunk whose later rows hold data the
// kernel must not report.
func newKernelCase(q []uint64, rows [][]uint64) *kernelCase {
	c := &kernelCase{q: q, rows: rows, arena: newSigArena(len(q))}
	for _, r := range rows {
		c.arena.appendSig(r)
	}
	c.packed = make([]uint64, prefilterBits*sigWords(len(q)))
	packPlanes(c.packed, 1, q)
	return c
}

// bytesCase fills a query and sweepBlock rows of `slots` slots from data,
// cycling it one byte a slot — the query's slots, then each row's.
func bytesCase(data []byte, slots int) *kernelCase {
	if len(data) == 0 {
		data = []byte{0}
	}
	pos := 0
	sig := func() []uint64 {
		s := make([]uint64, slots)
		for i := range s {
			s[i] = uint64(data[pos%len(data)]) | uint64(pos)<<8
			pos++
		}
		return s
	}
	q := sig()
	rows := make([][]uint64, sweepBlock)
	for i := range rows {
		rows[i] = sig()
	}
	return newKernelCase(q, rows)
}

// oneSlotCase is a query of `slots` slots, all v, and rows equal to it
// but in one slot, row i's slot i%slots, where the nibble's bit `bit`
// (0 to 3) is flipped: every row falls exactly one short of all slots,
// with the difference in one plane.
func oneSlotCase(slots int, v uint64, bit int) *kernelCase {
	q := make([]uint64, slots)
	for i := range q {
		q[i] = v
	}
	rows := make([][]uint64, sweepBlock)
	for i := range rows {
		rows[i] = slices.Clone(q)
		rows[i][i%slots] ^= 1 << bit
	}
	return newKernelCase(q, rows)
}

// check requires every kernel, over the chunk's first n rows laid out at
// byte offset off within a 64-byte window, to return exactly the rows
// whose naive count reaches minCount, with that count, writing nothing
// outside dst; and sigArena.rowMatches to return every row's naive count.
func (c *kernelCase) check(t *testing.T, n, off, minCount int) {
	t.Helper()
	var want []survivor
	for i, r := range c.rows[:n] {
		count := naiveMatches(c.q, r)
		if got := c.arena.rowMatches(i, c.packed); got != count {
			t.Fatalf("slots=%d row %d: rowMatches = %d, want %d", len(c.q), i, got, count)
		}
		if count >= minCount {
			want = append(want, survivor{off: uint32(i), count: uint32(count)})
		}
	}
	chunk := wordsAt(len(c.arena.chunks[0]), off)
	copy(chunk, c.arena.chunks[0])
	// One spare entry on each side must stay untouched: a kernel writes
	// only within dst.
	guard := survivor{off: 0xA5A5A5A5, count: 0x5A5A5A5A}
	for _, kernel := range kernels() {
		got := make([]survivor, n+2)
		got[0], got[n+1] = guard, guard
		restore := forceKernel(kernel)
		k := matchSurvivors(got[1:n+1], chunk, c.packed, minCount)
		restore()
		if got[0] != guard || got[n+1] != guard {
			t.Fatalf("%s kernel wrote outside dst (slots=%d n=%d off=%d minCount=%d)", kernel, len(c.q), n, off, minCount)
		}
		if !slices.Equal(got[1:1+k], want) {
			t.Fatalf("%s kernel: survivors %v, want %v (slots=%d n=%d off=%d minCount=%d)",
				kernel, got[1:1+k], want, len(c.q), n, off, minCount)
		}
	}
}

var (
	survivorSlots  = []int{1, 7, 64, 100, 128, 192, 1024}
	survivorBlocks = []int{0, 1, 2, 255, 256}
)

// survivorFloor picks a minCount for rows of `bits` bits a plane
// (slots plus padding): 0, 1, bits, bits+1, or one that sel places
// between them.
func survivorFloor(bits int, sel uint8) int {
	switch sel % 8 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return bits
	case 3:
		return bits + 1
	}
	return bits - int(sel>>3)%(bits+1)
}

// FuzzMatchCounts pins the assembly to the reference: for arbitrary
// slot bytes, at rows of 1, 7, 64, 100, 128, 192 and 1024 slots, every
// 8-byte alignment within a 64-byte window, chunks of 0, 1, 2, 255 and
// 256 rows and floors from 0 to all bits plus one, every kernel returns
// the survivors of a naive per-slot loop, with their counts, and
// sigArena.rowMatches each row's count.
func FuzzMatchCounts(f *testing.F) {
	f.Add([]byte{0x00}, uint8(4), uint8(3), uint8(0), uint8(2)) // all slots equal
	f.Add([]byte{0x00, 0x80, 0xFF}, uint8(0), uint8(1), uint8(1), uint8(1))
	f.Add([]byte{0xFF}, uint8(6), uint8(4), uint8(3), uint8(3))
	f.Add([]byte{0x88}, uint8(1), uint8(2), uint8(5), uint8(0))
	// All slots different: a byte ramp of prime length never lines up
	// with itself at a row's offset from the query.
	ramp := make([]byte, 251)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	f.Add(ramp, uint8(4), uint8(4), uint8(7), uint8(4))
	f.Add(ramp, uint8(3), uint8(3), uint8(2), uint8(5))
	// Slots that agree in one plane and not the others, so each level of
	// a kernel's checks decides some rows.
	for _, b := range [][]byte{{0x00, 0x01}, {0x00, 0x02}, {0x00, 0x04}, {0x00, 0x08}, {0x03, 0x0c}, {0x05, 0x0a, 0x0f}} {
		f.Add(b, uint8(4), uint8(4), uint8(1), uint8(14))
	}
	f.Add([]byte{0x10, 0x20, 0x30}, uint8(5), uint8(3), uint8(6), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, widthSel, blockSel, offSel, minSel uint8) {
		slots := survivorSlots[int(widthSel)%len(survivorSlots)]
		n := survivorBlocks[int(blockSel)%len(survivorBlocks)]
		bytesCase(data, slots).check(t, n, int(offSel%8)*8, survivorFloor(64*sigWords(slots), minSel))
	})
}

// TestMatchCountsKernels is the deterministic half of FuzzMatchCounts:
// the grid of widths, chunk lengths, alignments and floors on random
// and on mostly-equal data, and the crafted rows — one slot differing in
// each position, in each plane, at the floor that keeps them and the one
// that drops them all.
func TestMatchCountsKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 4099)
	rng.Read(data)
	// Mostly-equal slots: long runs of one byte make nibbles collide.
	sparse := make([]byte, 4099)
	for i := range sparse {
		if rng.Intn(8) == 0 {
			sparse[i] = byte(rng.Intn(16))
		}
	}
	for _, slots := range survivorSlots {
		bits := 64 * sigWords(slots)
		cases := []*kernelCase{bytesCase(data, slots), bytesCase(sparse, slots)}
		for _, n := range survivorBlocks {
			for off := 0; off < 64; off += 24 {
				for sel := uint8(0); sel < 5; sel++ {
					floor := survivorFloor(bits, sel+uint8(rng.Intn(32))*8)
					for _, c := range cases {
						c.check(t, n, off, floor)
					}
				}
			}
		}
		for _, v := range []uint64{0x0, 0xF, 0x5A} {
			for bit := 0; bit < prefilterBits; bit++ {
				c := oneSlotCase(slots, v, bit)
				for _, n := range []int{min(slots, sweepBlock), sweepBlock} {
					c.check(t, n, 0, bits)
					c.check(t, n, 8, bits-1)
				}
			}
		}
	}
}

// TestScanKernelSelection pins the selection rule: AVX-512 where the CPU
// has AVX512F, AVX512BW and AVX512_VPOPCNTDQ, else AVX2, at every row
// width.
func TestScanKernelSelection(t *testing.T) {
	const (
		f, bw, popcnt = 1 << 16, 1 << 30, 1 << 14
		zmm           = 0xe0
	)
	for _, c := range []struct {
		ebx7, ecx7, xcr0 uint32
		want             bool
	}{
		{f | bw, popcnt, 0xe6, true},
		{f | bw, 0, 0xe6, false},              // Skylake-SP, Cascade Lake: no VPOPCNTDQ
		{f, popcnt, 0xe6, false},              // no AVX512BW
		{bw, popcnt, 0xe6, false},             // no AVX512F
		{f | bw, popcnt, 0xe6 &^ 0x20, false}, // the OS saves no opmask state
		{f | bw, popcnt, 6, false},            // nor ZMM state
	} {
		if got := avx512Usable(c.ebx7, c.ecx7, c.xcr0); got != c.want {
			t.Errorf("avx512Usable(ebx7 %#x, ecx7 %#x, xcr0 %#x) = %v, want %v", c.ebx7, c.ecx7, c.xcr0, got, c.want)
		}
	}
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	for _, c := range []struct {
		ecx1, ebx7, xcr0 uint32
		want             bool
	}{
		{osxsave | avx, avx2, 6, true},
		{avx, avx2, 6, false},
		{osxsave, avx2, 6, false},
		{osxsave | avx, 0, 6, false},
		{osxsave | avx, avx2, 2, false},
	} {
		if got := avx2Usable(c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("avx2Usable(ecx1 %#x, ebx7 %#x, xcr0 %#x) = %v, want %v", c.ecx1, c.ebx7, c.xcr0, got, c.want)
		}
	}

	want := "portable"
	if hasAVX2 {
		want = "avx2"
	}
	if hasAVX512 {
		want = "avx512"
	}
	if got := scanKernel(); got != want {
		t.Errorf("scanKernel() = %q, want %q", got, want)
	}
	// Stats reports the selection per index, whatever the row width,
	// over a heap or a directory store.
	for _, dir := range []bool{false, true} {
		if got := engineAt(t, "kernel", dir).Stats().ScanKernel; got != want {
			t.Errorf("Stats().ScanKernel dir=%v = %q, want %q", dir, got, want)
		}
	}
	for _, slots := range []int{1, 100, 1024} {
		ix := NewIndex("width", DefaultK, slots)
		if got := ix.ScanKernel(); got != want {
			t.Errorf("%d slots: ScanKernel() = %q, want %q", slots, got, want)
		}
	}
	for _, k := range kernels() {
		restore := forceKernel(k)
		got := scanKernel()
		restore()
		if got != k {
			t.Errorf("forced to %s, scanKernel = %q", k, got)
		}
	}
}
