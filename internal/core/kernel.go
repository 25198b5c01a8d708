package core

import "math"

// The scan kernel: the inner step of the blocked prefilter sweep (see
// shard.sweep). matchCounts compares one packed query against a block
// of contiguous arena rows and writes each row's equal-lane count; the
// sweep thresholds those counts in Go. Two kernels exist:
//
//   - portable: a loop over packedMatchingSlots, the SWAR comparator.
//     It is the reference the assembly is fuzz-pinned to (see
//     FuzzMatchCounts) and the only kernel on every architecture but
//     amd64, at 64-bit lanes, and under the purego build tag.
//   - avx2 (kernel_amd64.s): a byte compare per 32 bytes and one
//     reduction per row, for 8-bit rows whose width is a multiple of 32
//     bytes, on amd64 CPUs that report AVX2 with OS-enabled YMM state.
//
// The choice is made from what the process can observe — architecture,
// CPU feature bits, row width — never from a setting.

// useAVX2 records, once at init, whether the CPU and OS support the
// AVX2 kernel. Tests flip it to run both kernels in one binary.
var useAVX2 = cpuHasAVX2()

// maxAVX2Words bounds the rows the AVX2 kernel takes: it accumulates
// one byte counter per lane position across a row's 32-byte vectors, so
// a row of more than 255 vectors could wrap a counter.
const maxAVX2Words = 255 * 4

// avx2Rows reports whether rows of `words` uint64 words at `bits` lane
// width have the shape the AVX2 kernel handles.
func avx2Rows(words, bits int) bool {
	return bits == 8 && words > 0 && words%4 == 0 && words <= maxAVX2Words
}

// scanKernel names the kernel matchCounts runs for rows of this shape:
// "avx2" or "portable".
func scanKernel(words, bits int) string {
	if useAVX2 && avx2Rows(words, bits) {
		return "avx2"
	}
	return "portable"
}

// lanesPerWord is how many b-bit lanes one uint64 word holds.
func lanesPerWord(bits int) int { return 64 / bits }

// countableRow reports whether a row's equal-lane count, padding lanes
// included, fits matchCounts' uint16 output. Signatures beyond that
// (more than 65535 lanes) are scored per row by the sweep instead.
func countableRow(words, bits int) bool {
	return words*lanesPerWord(bits) <= math.MaxUint16
}

// matchCountsPortable is the reference kernel: dst[i] receives the
// number of lanes in which row i (rows[i*len(q):(i+1)*len(q)]) equals q,
// for every i < len(dst). Padding lanes are zero on both sides and count
// as equal, exactly as packedMatchingSlots sees them before it
// subtracts them; the sweep subtracts them once instead.
func matchCountsPortable(dst []uint16, rows, q []uint64, bits int) {
	w := len(q)
	lanes := w * lanesPerWord(bits)
	rows = rows[:len(dst)*w]
	for i := range dst {
		dst[i] = uint16(packedMatchingSlots(q, rows[i*w:(i+1)*w], lanes, bits))
	}
}
