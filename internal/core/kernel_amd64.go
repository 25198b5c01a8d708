//go:build amd64 && !purego

package core

// matchCounts fills dst[i] with the number of lanes in which row i of
// rows equals q, for every i < len(dst); rows holds at least len(dst)
// rows of len(q) words. See matchCountsPortable for the contract both
// kernels meet.
func matchCounts(dst []uint16, rows, q []uint64, bits int) {
	if !useAVX2 || !avx2Rows(len(q), bits) {
		matchCountsPortable(dst, rows, q, bits)
		return
	}
	n := len(dst)
	if n == 0 {
		return
	}
	// The reslice is the bounds check the assembly relies on: it reads
	// exactly n*len(q) words from rows and writes exactly n counts.
	rows = rows[:n*len(q)]
	matchCounts8AVX2(&dst[0], &rows[0], &q[0], n, len(q)/4)
}

// matchCounts8AVX2 is the AVX2 kernel for 8-bit lanes: for each of n
// rows of vecs 32-byte vectors it stores the count of bytes equal to
// the corresponding byte of q. It uses unaligned loads (arena rows are
// only 8-byte aligned). n and vecs must be positive and vecs at most
// 255.
//
//go:noescape
func matchCounts8AVX2(dst *uint16, rows, q *uint64, n, vecs int)

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
