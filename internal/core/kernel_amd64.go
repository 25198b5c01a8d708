//go:build amd64 && !purego

package core

// matchSurvivors writes to dst the chunk offset and equal-nibble count of
// every one of the chunk's first len(dst) rows whose count is at least
// minCount, and returns how many it wrote. See kernel.go for the contract
// every kernel meets.
func matchSurvivors(dst []survivor, chunk, q []uint64, minCount int) int {
	cols, limit, from, ok := scanLimit(dst, chunk, q, minCount)
	if !ok {
		return 0
	}
	switch scanKernel() {
	case "avx512":
		return survivorsAVX512(&dst[0], &cols[0], &q[0], len(dst), len(q)/prefilterBits, limit, from)
	case "avx2":
		return survivorsAVX2(&dst[0], &cols[0], &q[0], len(dst), len(q)/prefilterBits, limit, from)
	}
	return matchSurvivorsPortable(dst, cols, q, limit, from)
}

// survivorsAVX512 and survivorsAVX2 are the vector kernels for rows of w
// words a plane (kernel_amd64.s). They use unaligned loads, read each
// column's first n rows rounded up to a group of 8, and write at most n
// survivors. n is 1 to sweepBlock, w positive, limit non-negative,
// from 1, 2 or 4.
//
//go:noescape
func survivorsAVX512(dst *survivor, chunk, q *uint64, n, w, limit, from int) int

//go:noescape
func survivorsAVX2(dst *survivor, chunk, q *uint64, n, w, limit, from int) int

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0. Only valid when CPUID
// reports OSXSAVE.
func xgetbv0() (eax, edx uint32)

// cpuFeatures returns what avx2Usable and avx512Usable read: CPUID leaf
// 1 ECX, leaf 7 EBX and ECX, and XCR0 (0 unless OSXSAVE is set). ok is
// false on CPUs without leaf 7.
func cpuFeatures() (ecx1, ebx7, ecx7, xcr0 uint32, ok bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return 0, 0, 0, 0, false
	}
	_, _, ecx1, _ = cpuid(1, 0)
	if ecx1&(1<<27) != 0 {
		xcr0, _ = xgetbv0()
	}
	_, ebx7, ecx7, _ = cpuid(7, 0)
	return ecx1, ebx7, ecx7, xcr0, true
}

func cpuHasAVX2() bool {
	ecx1, ebx7, _, xcr0, ok := cpuFeatures()
	return ok && avx2Usable(ecx1, ebx7, xcr0)
}

func cpuHasAVX512() bool {
	ecx1, ebx7, ecx7, xcr0, ok := cpuFeatures()
	return ok && avx2Usable(ecx1, ebx7, xcr0) && avx512Usable(ebx7, ecx7, xcr0)
}
