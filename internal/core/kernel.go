package core

// The scan kernel: the inner step of the blocked prefilter sweep (see
// shard.sweep). matchSurvivors compares one packed query against a block
// of contiguous arena rows and hands back only the rows that can still
// reach the sweep's threshold: for each row whose count of equal
// nibbles (padding included) is at least minCount, it writes the row's
// block offset and that count, and it returns how many it wrote. The
// count bounds the row's full-width count from above, so no row the
// threshold keeps is lost; survivors whose full-width count falls short
// are the rescore's to drop. Three kernels exist:
//
//   - portable: a loop over nibbleMatches, the SWAR comparator. It is
//     the reference the assembly is fuzz-pinned to (see
//     FuzzMatchCounts) and the only kernel on every architecture but
//     amd64, and under the purego build tag.
//   - avx512 (kernel_amd64.s): a nibble test per 64 bytes, its masks
//     popcounted, for rows that are a multiple of 64 bytes, on amd64
//     CPUs that report AVX512F and AVX512BW with OS-enabled opmask and
//     ZMM state.
//   - avx2 (kernel_amd64.s): a byte compare per 32 bytes and one
//     reduction per row, two rows at a time, for rows that are a
//     multiple of 32 bytes, on amd64 CPUs that report AVX2 with
//     OS-enabled YMM state.
//
// The choice is made from what the process can observe — architecture,
// CPU feature bits, row width — never from a setting.

// useAVX2 and useAVX512 record, once at init, whether the CPU and OS
// support each vector kernel. Tests clear them to run every kernel in
// one binary.
var (
	useAVX2   = cpuHasAVX2()
	useAVX512 = cpuHasAVX512()
)

// maxAVX2Words bounds the rows the AVX2 kernel takes: it accumulates
// one byte counter per lane position across a row's 32-byte vectors,
// two nibbles a vector, so a row of more than 127 vectors could wrap a
// counter.
const maxAVX2Words = 127 * 4

// scanKernel names the kernel matchSurvivors runs for rows of `words`
// words: "avx512", "avx2" or "portable".
func scanKernel(words int) string {
	switch {
	case words == 0:
		return "portable"
	case useAVX512 && words%8 == 0:
		return "avx512"
	case useAVX2 && words%4 == 0 && words <= maxAVX2Words:
		return "avx2"
	}
	return "portable"
}

// survivor is one row a scan kernel let through: its offset in the
// block and its count of equal nibbles, padding included.
type survivor struct{ off, count uint32 }

// matchSurvivorsPortable is the reference kernel: see matchSurvivors for
// the contract every kernel meets. dst holds one entry per row of the
// block; entries past the returned count are unspecified.
func matchSurvivorsPortable(dst []survivor, block, q []uint64, minCount int) int {
	w, k := len(q), 0
	for i := range dst {
		if c := nibbleMatches(q, block[i*w:(i+1)*w]); c >= minCount {
			dst[k] = survivor{off: uint32(i), count: uint32(c)}
			k++
		}
	}
	return k
}
