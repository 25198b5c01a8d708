package core

// The scan kernel: the inner step of the blocked prefilter sweep (see
// shard.sweep). matchSurvivors compares one packed query against a block
// of contiguous arena rows and hands back only the rows that can still
// reach the sweep's threshold: for each row whose low-plane count (equal
// nibbles, padding included) is at least minCount, it writes the row's
// block offset and its exact equal-lane count, reading the row's high
// plane only then, and it returns how many it wrote. The low-plane count
// bounds the exact count from above, so no row the threshold keeps is
// lost; survivors whose exact count falls short are the sweep's to drop.
// Three kernels exist:
//
//   - portable: a loop over nibbleMatches and laneMatches, the SWAR
//     comparators. It is the reference the assembly is fuzz-pinned to
//     (see FuzzMatchCounts) and the only kernel on every architecture but
//     amd64, and under the purego build tag.
//   - avx512 (kernel_amd64.s): a byte test per 64 bytes, its masks
//     popcounted, for rows whose planes are a multiple of 64 bytes, on
//     amd64 CPUs that report AVX512F and AVX512BW with OS-enabled opmask
//     and ZMM state.
//   - avx2 (kernel_amd64.s): a byte compare per 32 bytes and one
//     reduction per row, two rows at a time, for rows whose planes are a
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

// maxAVX2Words bounds the planes the AVX2 kernel takes: it accumulates
// one byte counter per lane position across a row's 32-byte vectors,
// two nibbles a vector, so a row of more than 127 vectors could wrap a
// counter.
const maxAVX2Words = 127 * 4

// scanKernel names the kernel matchSurvivors runs for rows of `words`
// words a plane: "avx512", "avx2" or "portable".
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
// block and its exact equal-lane count, padding lanes included.
type survivor struct{ off, count uint32 }

// matchSurvivorsPortable is the reference kernel: see matchSurvivors for
// the contract every kernel meets. dst holds one entry per row of the
// block; entries past the returned count are unspecified.
func matchSurvivorsPortable(dst []survivor, block, q planes, minCount int) int {
	w, k := len(q.lo), 0
	for i := range dst {
		lo := block.lo[i*w : (i+1)*w]
		if nibbleMatches(q.lo, lo) < minCount {
			continue
		}
		c := laneMatches(q, planes{lo, block.hi[i*w : (i+1)*w]})
		dst[k] = survivor{off: uint32(i), count: uint32(c)}
		k++
	}
	return k
}
