//go:build amd64 && !purego

package core

// matchSurvivors writes to dst the block offset and equal-nibble count
// of every row of block whose count is at least minCount, and returns
// how many it wrote; dst has one entry per row, len(q) words each. See
// kernel.go for the contract every kernel meets.
func matchSurvivors(dst []survivor, block, q []uint64, minCount int) int {
	n, w := len(dst), len(q)
	if n == 0 {
		return 0
	}
	// The reslice is the bounds check the assembly relies on: it reads
	// exactly n*w words of the block and w of the query, and writes at
	// most n survivors. A negative floor keeps every row, as 0 does; the
	// assembly compares unsigned.
	rows := block[:n*w]
	minCount = max(minCount, 0)
	switch scanKernel(w) {
	case "avx512":
		return survivorsAVX512(&dst[0], &rows[0], &q[0], n, w/8, minCount)
	case "avx2":
		return survivorsAVX2(&dst[0], &rows[0], &q[0], n, w/4, minCount)
	}
	return matchSurvivorsPortable(dst, block, q, minCount)
}

// survivorsAVX512 and survivorsAVX2 are the vector kernels for rows of
// vecs 64- or 32-byte vectors (kernel_amd64.s). They use unaligned loads
// (arena rows are only 8-byte aligned). n and vecs must be positive,
// vecs at most 127 for AVX2, and minCount non-negative.
//
//go:noescape
func survivorsAVX512(dst *survivor, rows, q *uint64, n, vecs, minCount int) int

//go:noescape
func survivorsAVX2(dst *survivor, rows, q *uint64, n, vecs, minCount int) int

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0. Only valid when CPUID
// reports OSXSAVE.
func xgetbv0() (eax, edx uint32)

// cpuHasAVX2 reports whether AVX2 is usable: the CPU implements it
// (leaf 7 EBX bit 5) and AVX (leaf 1 ECX bit 28), and the OS saves and
// restores YMM state (OSXSAVE set, XCR0 bits 1 and 2 both set).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuHasAVX512 reports whether the AVX-512 kernel is usable: everything
// AVX2 needs, AVX512F and AVX512BW (leaf 7 EBX bits 16 and 30), and OS
// support for the opmask and ZMM state (XCR0 bits 5 to 7). Every such
// CPU also has POPCNT.
func cpuHasAVX512() bool {
	if !cpuHasAVX2() {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&0xe0 != 0xe0 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 && ebx&(1<<30) != 0
}
