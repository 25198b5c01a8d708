package core

import "math/bits"

// The scan kernel: the inner step of the blocked prefilter sweep (see
// shard.sweep). matchSurvivors compares one plane-packed query against
// the first len(dst) rows of an arena chunk and hands back only the rows
// that can still reach the sweep's threshold: for each row whose count of
// equal nibbles (padding included) is at least minCount, it writes the
// row's offset in the chunk and that count, and it returns how many it
// wrote. The count bounds the row's full-width count from above, so no
// row the threshold keeps is lost; survivors whose full-width count falls
// short are the rescore's to drop.
//
// Every kernel checks a row's bound up to three times — after plane 0,
// after planes 0 and 1, and after all four — and stops
// as soon as it falls short, so at a selective floor a row costs one
// plane (16 of its 64 bytes at 128 slots). A check that an unrelated row
// would usually pass is skipped (see firstCheck): at a low floor it would
// only cost its reads. Three kernels exist:
//
//   - portable: XOR, OR and popcount a word, a check at a time over the
//     rows still live. It is the reference the assembly is fuzz-pinned to (see FuzzMatchCounts) and
//     the only kernel on every architecture but amd64, and under the
//     purego build tag.
//   - avx512 (kernel_amd64.s): eight rows a group, one VPOPCNTQ per
//     word, on amd64 CPUs that report AVX512F, AVX512BW and
//     AVX512_VPOPCNTDQ with OS-enabled opmask and ZMM state.
//   - avx2 (kernel_amd64.s): eight rows a group, popcount by a nibble
//     lookup (VPSHUFB) and VPSADBW, on amd64 CPUs that report AVX2 with
//     OS-enabled YMM state, AVX-512 CPUs without VPOPCNTDQ among them.
//
// Every kernel takes every row width. The choice is made from what the
// process can observe — architecture and CPU feature bits — never from a
// setting.

// useAVX2 and useAVX512 record, once at init, whether the CPU and OS
// support each vector kernel. Tests clear them to run every kernel in
// one binary.
var (
	useAVX2   = cpuHasAVX2()
	useAVX512 = cpuHasAVX512()
)

// scanKernel names the kernel matchSurvivors runs: "avx512", "avx2" or
// "portable".
func scanKernel() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX2:
		return "avx2"
	}
	return "portable"
}

// avx2Usable reports from CPUID leaf 1 ECX, leaf 7 EBX and XCR0 whether
// the AVX2 kernel can run: AVX (ECX bit 28) and AVX2 (EBX bit 5), and the
// OS saves YMM state (OSXSAVE, ECX bit 27; XCR0 bits 1 and 2).
func avx2Usable(ecx1, ebx7, xcr0 uint32) bool {
	const osxsave, avx = 1 << 27, 1 << 28
	return ecx1&osxsave != 0 && ecx1&avx != 0 && xcr0&6 == 6 && ebx7&(1<<5) != 0
}

// avx512Usable reports from leaf 7 EBX and ECX and XCR0 whether the
// AVX-512 kernel can run, given avx2Usable: AVX512F and AVX512BW (EBX bits
// 16 and 30), AVX512_VPOPCNTDQ (ECX bit 14), and OS support for opmask
// and ZMM state (XCR0 bits 5 to 7). CPUs without VPOPCNTDQ (Skylake-SP,
// Cascade Lake) take the AVX2 kernel.
func avx512Usable(ebx7, ecx7, xcr0 uint32) bool {
	return ebx7&(1<<16) != 0 && ebx7&(1<<30) != 0 && ecx7&(1<<14) != 0 && xcr0&0xe0 == 0xe0
}

// survivor is one row a scan kernel let through: its offset in the
// chunk and its count of equal nibbles, padding included.
type survivor struct{ off, count uint32 }

// matchSurvivorsPortable is the reference kernel: see matchSurvivors for
// the contract every kernel meets. limit is the most slots a surviving
// row may rule out, 64w − minCount, at least 0; from is the plane count
// of the first check (1, 2 or 4). dst holds the offsets of the rows still
// live; each check is one pass over them a word at a time, summing in
// miss what its planes rule out, and then compacts dst to the rows within
// limit.
func matchSurvivorsPortable(dst []survivor, chunk, q []uint64, limit, from int) int {
	w, k := len(q)/prefilterBits, len(dst)
	for i := range dst {
		dst[i].off = uint32(i)
	}
	var miss [sweepBlock]int
	for planes := from; planes <= prefilterBits; planes *= 2 {
		live, m := dst[:k], miss[:k]
		clear(m)
		for j := range w {
			// Word j of each plane the check reads; a plane past those
			// repeats the last, so every column slice is valid.
			var col [prefilterBits][]uint64
			var qw [prefilterBits]uint64
			for p := range col {
				c := min(p, planes-1)*w + j
				col[p], qw[p] = chunk[c*sweepBlock:][:sweepBlock], q[c]
			}
			switch planes {
			case 1:
				for i, s := range live {
					m[i] += bits.OnesCount64(col[0][s.off%sweepBlock] ^ qw[0])
				}
			case 2:
				for i, s := range live {
					o := s.off % sweepBlock
					m[i] += bits.OnesCount64((col[0][o] ^ qw[0]) | (col[1][o] ^ qw[1]))
				}
			default:
				for i, s := range live {
					o := s.off % sweepBlock
					m[i] += bits.OnesCount64((col[0][o] ^ qw[0]) | (col[1][o] ^ qw[1]) | (col[2][o] ^ qw[2]) | (col[3][o] ^ qw[3]))
				}
			}
		}
		k = 0
		for i, s := range live {
			if m[i] <= limit {
				dst[k] = survivor{off: s.off, count: uint32(64*w - m[i])}
				k++
			}
		}
	}
	return k
}

// scanLimit checks a kernel call's shape — at most sweepBlock rows, a
// whole chunk for q — and turns minCount into the kernels' limit, the
// most slots a surviving row may rule out, and their first check (see
// firstCheck); ok is false when no row can reach minCount. The reslice
// is the bounds check the assembly relies on: it reads the first rows,
// rounded up to its group, of each column.
func scanLimit(dst []survivor, chunk, q []uint64, minCount int) (cols []uint64, limit, from int, ok bool) {
	if len(dst) > sweepBlock {
		panic("core: a scan kernel call covers at most one chunk")
	}
	w := len(q) / prefilterBits
	cols = chunk[:len(q)*sweepBlock]
	limit = 64*w - max(minCount, 0)
	return cols, limit, firstCheck(w, minCount), limit >= 0 && len(dst) > 0 && w > 0
}

// firstCheck returns how many planes a kernel reads before it first
// checks a row's bound: the fewest (1, 2 or 4) whose bound an unrelated
// row would usually miss at this floor. Such a row's nibbles are random,
// so each plane halves its expected bound from 64w. Any start gives the
// same survivors; a check most rows pass would only cost its reads.
func firstCheck(w, minCount int) int {
	planes := 1
	for planes < prefilterBits && minCount <= 64*w/(2*planes) {
		planes *= 2
	}
	return planes
}
