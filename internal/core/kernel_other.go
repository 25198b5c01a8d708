//go:build !amd64 || purego

package core

// matchSurvivors is the portable kernel on every architecture without an
// assembly one, and on amd64 under the purego build tag.
func matchSurvivors(dst []survivor, block, q []uint64, minCount int) int {
	return matchSurvivorsPortable(dst, block, q, minCount)
}

func cpuHasAVX2() bool   { return false }
func cpuHasAVX512() bool { return false }
