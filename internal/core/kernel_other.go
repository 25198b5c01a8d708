//go:build !amd64 || purego

package core

// matchSurvivors is the portable kernel on every architecture without an
// assembly one, and on amd64 under the purego build tag.
func matchSurvivors(dst []survivor, chunk, q []uint64, minCount int) int {
	cols, limit, from, ok := scanLimit(dst, chunk, q, minCount)
	if !ok {
		return 0
	}
	return matchSurvivorsPortable(dst, cols, q, limit, from)
}

func cpuHasAVX2() bool   { return false }
func cpuHasAVX512() bool { return false }
